#include "prefetch/mana.hh"

#include "obs/registry.hh"
#include "obs/why.hh"

namespace eip::prefetch {

ManaPrefetcher::ManaPrefetcher(const ManaConfig &config)
    : cfg(config), table(config.entries, config.ways)
{}

std::string
ManaPrefetcher::name() const
{
    return "MANA-" + std::to_string(cfg.entries / 1024) + "K";
}

uint64_t
ManaPrefetcher::storageBits() const
{
    // Tag (partial, 16b) + footprint + successor pointer + LRU.
    uint64_t ptr_bits = floorLog2(cfg.entries) + 1;
    uint64_t per_entry = 16 + cfg.footprintLines + ptr_bits + 2;
    return static_cast<uint64_t>(cfg.entries) * per_entry + 58 + 8;
}

void
ManaPrefetcher::registerStats(obs::CounterRegistry &reg)
{
    reg.counter("mana.table_hits", &stats_.tableHits);
    reg.counter("mana.table_misses", &stats_.tableMisses);
    reg.counter("mana.inserts", &stats_.inserts);
    reg.counter("mana.evictions", &stats_.evictions);
    reg.counter("mana.regions_committed", &stats_.regionsCommitted);
    reg.counter("mana.chain_steps", &stats_.chainSteps);
    reg.counter("mana.chain_breaks", &stats_.chainBreaks);
}

ManaPrefetcher::Entry *
ManaPrefetcher::find(sim::Addr line)
{
    return table.find(table.foldedSet(line), line);
}

ManaPrefetcher::Entry *
ManaPrefetcher::findOrInsert(sim::Addr line)
{
    uint32_t set = table.foldedSet(line);
    if (Entry *e = table.find(set, line)) {
        table.touch(*e);
        return e;
    }
    ++stats_.inserts;
    Entry &e = table.insert(set, line, [this](const Entry &victim) {
        ++stats_.evictions;
        // Miss attribution: the victim's region prediction is lost.
        if (ghost_ != nullptr)
            ghostRecordRegion(victim);
    });
    e.payload = Region{};
    if (ghost_ != nullptr)
        ghost_->erase(line);
    return &e;
}

void
ManaPrefetcher::ghostRecordRegion(const Entry &e)
{
    ghost_->record(e.key);
    for (uint32_t i = 0; i < cfg.footprintLines; ++i) {
        if (e.payload.footprint & (1u << i))
            ghost_->record(e.key + 1 + i);
    }
}

void
ManaPrefetcher::ghostEraseRegion(const Entry &e)
{
    ghost_->erase(e.key);
    for (uint32_t i = 0; i < cfg.footprintLines; ++i) {
        if (e.payload.footprint & (1u << i))
            ghost_->erase(e.key + 1 + i);
    }
}

void
ManaPrefetcher::enableBlame()
{
    if (ghost_ == nullptr)
        ghost_ = std::make_unique<core::GhostPairSet>();
}

obs::MissBlame
ManaPrefetcher::blame(sim::Addr line, sim::Addr pc)
{
    (void)pc;
    if (ghost_ != nullptr && ghost_->contains(line))
        return obs::MissBlame::PairEvicted;
    return obs::MissBlame::None;
}

void
ManaPrefetcher::prefetchRegion(const Entry &e)
{
    owner->enqueuePrefetch(e.key);
    for (uint32_t i = 0; i < cfg.footprintLines; ++i) {
        if (e.payload.footprint & (1u << i))
            owner->enqueuePrefetch(e.key + 1 + i);
    }
}

void
ManaPrefetcher::onCacheOperate(const sim::CacheOperateInfo &info)
{
    sim::Addr line = info.line;

    // --- Training: extend or close the current spatial region. ---
    if (hasTrigger && line > triggerLine &&
        line - triggerLine <= cfg.footprintLines) {
        triggerFootprint |=
            static_cast<uint8_t>(1u << (line - triggerLine - 1));
    } else if (!hasTrigger || line != triggerLine) {
        // New trigger: commit the footprint and chain the successor.
        if (hasTrigger) {
            ++stats_.regionsCommitted;
            Entry *prev = findOrInsert(triggerLine);
            prev->payload.footprint |= triggerFootprint;
            // The committed region is predictable again: un-ghost it.
            if (ghost_ != nullptr)
                ghostEraseRegion(*prev);
            Entry *next = findOrInsert(line);
            // findOrInsert may have moved prev; re-find to be safe.
            prev = find(triggerLine);
            if (prev != nullptr) {
                prev->payload.successor =
                    static_cast<uint32_t>(table.indexOf(*next));
                prev->payload.successorValid = true;
            }
        }
        hasTrigger = true;
        triggerLine = line;
        triggerFootprint = 0;
    }

    // --- Prediction: walk the chain `lookahead` regions ahead. ---
    Entry *e = find(line);
    if (e != nullptr)
        ++stats_.tableHits;
    else
        ++stats_.tableMisses;
    uint32_t steps = 0;
    while (e != nullptr && e->payload.successorValid &&
           steps < cfg.lookahead) {
        Entry &succ = table.at(e->payload.successor);
        if (!succ.valid()) {
            ++stats_.chainBreaks;
            break;
        }
        prefetchRegion(succ);
        e = &succ;
        ++steps;
        ++stats_.chainSteps;
    }
}

} // namespace eip::prefetch
