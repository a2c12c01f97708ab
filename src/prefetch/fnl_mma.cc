#include "prefetch/fnl_mma.hh"

#include "obs/why.hh"
#include "util/bitops.hh"

namespace eip::prefetch {

FnlMmaPrefetcher::FnlMmaPrefetcher(const FnlMmaConfig &config)
    : cfg(config), mma(config.mmaEntries, config.mmaWays)
{
    // Start weakly worth-prefetching: plain next-line until trained down.
    fnl.assign(cfg.fnlBits / 2, SaturatingCounter(2, 2));
}

uint64_t
FnlMmaPrefetcher::storageBits() const
{
    // FNL counters + MMA entries (partial tag + successor + LRU).
    uint64_t mma_entry = 14 + 58 + 2;
    return cfg.fnlBits +
           static_cast<uint64_t>(cfg.mmaEntries) * mma_entry +
           cfg.missAhead * 58;
}

size_t
FnlMmaPrefetcher::fnlIndex(sim::Addr line) const
{
    return static_cast<size_t>(xorFold(line, floorLog2(fnl.size()))) %
           fnl.size();
}

void
FnlMmaPrefetcher::onCacheOperate(const sim::CacheOperateInfo &info)
{
    sim::Addr line = info.line;

    // --- FNL: prefetch the next lines deemed worth it. ---
    for (uint32_t i = 1; i <= cfg.fnlDepth; ++i) {
        if (fnl[fnlIndex(line + i)].strong())
            owner->enqueuePrefetch(line + i);
    }
    if (!info.hit) {
        // This line missed: its predecessors should have prefetched it.
        fnl[fnlIndex(line)].increment();
    }

    // --- MMA: on a miss, train and chase the miss-ahead chain. ---
    if (info.hit)
        return;

    missQueue.push_back(line);
    if (missQueue.size() > cfg.missAhead + 1)
        missQueue.erase(missQueue.begin());
    if (missQueue.size() == cfg.missAhead + 1) {
        // The miss `missAhead` positions ago now knows its n-th successor.
        sim::Addr miss = missQueue.front();
        uint32_t set = mma.foldedSet(miss);
        auto *e = mma.find(set, miss);
        if (e != nullptr) {
            mma.touch(*e);
        } else {
            // Miss attribution: the victim's miss-ahead prediction is lost.
            e = &mma.insert(set, miss, [this](const auto &victim) {
                if (ghost_ != nullptr && victim.payload != 0)
                    ghost_->record(victim.payload);
            });
        }
        e->payload = line;
        // The line is a live miss-ahead target again: un-ghost it.
        if (ghost_ != nullptr)
            ghost_->erase(line);
    }

    sim::Addr cursor = line;
    for (uint32_t step = 0; step < cfg.chase; ++step) {
        auto *e = mma.find(mma.foldedSet(cursor), cursor);
        if (e == nullptr || e->payload == 0)
            break;
        sim::Addr ahead = e->payload;
        owner->enqueuePrefetch(ahead);
        // Pull in the sequential neighbourhood of the predicted miss too.
        if (fnl[fnlIndex(ahead + 1)].strong())
            owner->enqueuePrefetch(ahead + 1);
        cursor = ahead;
    }
}

void
FnlMmaPrefetcher::enableBlame()
{
    if (ghost_ == nullptr)
        ghost_ = std::make_unique<core::GhostPairSet>();
}

obs::MissBlame
FnlMmaPrefetcher::blame(sim::Addr line, sim::Addr pc)
{
    (void)pc;
    if (ghost_ != nullptr && ghost_->contains(line))
        return obs::MissBlame::PairEvicted;
    return obs::MissBlame::None;
}

void
FnlMmaPrefetcher::onCacheFill(const sim::CacheFillInfo &info)
{
    // Wrong prefetch: trained-down so FNL stops pulling this line.
    if (info.evictedUnusedPrefetch)
        fnl[fnlIndex(info.evictedLine)].decrement();
}

} // namespace eip::prefetch
