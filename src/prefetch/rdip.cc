#include "prefetch/rdip.hh"

#include <algorithm>

namespace eip::prefetch {

RdipPrefetcher::RdipPrefetcher(const RdipConfig &config)
    : cfg(config),
      table(config.entries, config.ways,
            std::vector<Trigger>(config.triggers))
{}

uint64_t
RdipPrefetcher::storageBits() const
{
    // Partial tag + per-trigger (30-bit line + footprint + valid) + LRU.
    uint64_t per_trigger = 30 + cfg.footprintLines + 1;
    uint64_t per_entry = 12 + cfg.triggers * per_trigger + 2;
    return static_cast<uint64_t>(cfg.entries) * per_entry +
           cfg.shadowRasEntries * 48;
}

uint64_t
RdipPrefetcher::computeSignature() const
{
    uint64_t sig = 0x9e37;
    size_t depth = std::min<size_t>(cfg.rasDepth, shadowRas.size());
    for (size_t i = 0; i < depth; ++i) {
        sim::Addr ra = shadowRas[shadowRas.size() - 1 - i];
        sig = (sig << 7) ^ (sig >> 9) ^ (ra >> 2);
    }
    return sig;
}

void
RdipPrefetcher::commitMisses()
{
    if (missLog.empty())
        return;
    uint32_t set = table.foldedSet(currentSignature);
    auto *e = table.find(set, currentSignature);
    if (e != nullptr) {
        table.touch(*e);
    } else {
        e = &table.insert(set, currentSignature);
        for (auto &t : e->payload)
            t = Trigger{};
    }
    std::vector<Trigger> &triggers = e->payload;
    for (sim::Addr miss : missLog) {
        // Attach to an existing trigger region when the miss follows it
        // closely; otherwise claim a trigger slot (round robin over the
        // least-recently written).
        bool placed = false;
        for (auto &t : triggers) {
            if (t.valid && miss > t.line &&
                miss - t.line <= cfg.footprintLines) {
                t.footprint |=
                    static_cast<uint8_t>(1u << (miss - t.line - 1));
                placed = true;
                break;
            }
            if (t.valid && miss == t.line) {
                placed = true;
                break;
            }
        }
        if (placed)
            continue;
        for (auto &t : triggers) {
            if (!t.valid) {
                t.valid = true;
                t.line = miss;
                t.footprint = 0;
                placed = true;
                break;
            }
        }
        if (!placed) {
            // All trigger slots used: replace the first (oldest written).
            triggers[0].line = miss;
            triggers[0].footprint = 0;
        }
    }
    missLog.clear();
}

void
RdipPrefetcher::prefetchFor(uint64_t sig)
{
    auto *e = table.find(table.foldedSet(sig), sig);
    if (e == nullptr)
        return;
    table.touch(*e);
    for (const auto &t : e->payload) {
        if (!t.valid)
            continue;
        owner->enqueuePrefetch(t.line);
        for (uint32_t i = 0; i < cfg.footprintLines; ++i) {
            if (t.footprint & (1u << i))
                owner->enqueuePrefetch(t.line + 1 + i);
        }
    }
}

void
RdipPrefetcher::onBranch(sim::Addr pc, trace::BranchType type,
                         sim::Addr target)
{
    (void)target;
    using trace::BranchType;
    if (type != BranchType::DirectCall && type != BranchType::IndirectCall &&
        type != BranchType::Return) {
        return;
    }

    // Misses seen under the old signature belong to it.
    commitMisses();

    if (type == BranchType::Return) {
        if (!shadowRas.empty())
            shadowRas.pop_back();
    } else {
        if (shadowRas.size() >= cfg.shadowRasEntries)
            shadowRas.erase(shadowRas.begin());
        shadowRas.push_back(pc + 4);
    }
    currentSignature = computeSignature();
    prefetchFor(currentSignature);
}

void
RdipPrefetcher::onCacheOperate(const sim::CacheOperateInfo &info)
{
    if (!info.hit && missLog.size() < 16)
        missLog.push_back(info.line);
}

} // namespace eip::prefetch
