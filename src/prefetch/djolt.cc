#include "prefetch/djolt.hh"

#include <algorithm>

namespace eip::prefetch {

void
DjoltPrefetcher::Table::record(uint64_t sig, sim::Addr line)
{
    uint32_t set = sigs.foldedSet(sig);
    auto *e = sigs.find(set, sig);
    if (e != nullptr) {
        sigs.touch(*e);
    } else {
        e = &sigs.insert(set, sig);
        e->payload.clear();
    }
    std::vector<sim::Addr> &lines = e->payload;
    if (std::find(lines.begin(), lines.end(), line) != lines.end())
        return;
    if (lines.size() >= range.linesPerEntry)
        lines.erase(lines.begin());
    lines.push_back(line);
}

DjoltPrefetcher::DjoltPrefetcher(const DjoltConfig &config)
    : cfg(config), shortTable(config.shortRange), longTable(config.longRange)
{}

uint64_t
DjoltPrefetcher::storageBits() const
{
    auto table_bits = [](const DjoltRange &r) {
        // Partial tag + region-relative 30-bit line addresses + LRU (the
        // paper's configuration totals 125KB).
        uint64_t per_entry = 14 + r.linesPerEntry * 30 + 2;
        return static_cast<uint64_t>(r.entries) * per_entry;
    };
    return table_bits(cfg.shortRange) + table_bits(cfg.longRange) +
           (cfg.shortRange.lookaheadCalls + cfg.longRange.lookaheadCalls) *
               64;
}

void
DjoltPrefetcher::prefetchFor(Table &table, uint64_t sig)
{
    auto *e = table.sigs.find(table.sigs.foldedSet(sig), sig);
    if (e == nullptr)
        return;
    table.sigs.touch(*e);
    for (sim::Addr line : e->payload)
        owner->enqueuePrefetch(line);
}

void
DjoltPrefetcher::onBranch(sim::Addr pc, trace::BranchType type,
                          sim::Addr target)
{
    using trace::BranchType;
    if (type != BranchType::DirectCall &&
        type != BranchType::IndirectCall && type != BranchType::Return) {
        return;
    }

    // The signature folds the last `signatureCalls` call/return tokens —
    // a *windowed* context, so identical call sequences reproduce
    // identical signatures regardless of what preceded them.
    uint64_t token = type == BranchType::Return
        ? (pc >> 2) * 0x2545f4914f6cdd1dULL
        : ((pc >> 2) ^ (target >> 1)) * 0x9e3779b97f4a7c15ULL;
    recentTokens.push_back(token);
    while (recentTokens.size() > cfg.signatureCalls)
        recentTokens.pop_front();
    signature = 0x5eed;
    for (uint64_t t : recentTokens)
        signature = (signature << 5) ^ (signature >> 3) ^ t;

    signatureHistory.push_back(signature);
    size_t keep = std::max(cfg.shortRange.lookaheadCalls,
                           cfg.longRange.lookaheadCalls) + 1;
    while (signatureHistory.size() > keep)
        signatureHistory.pop_front();

    // Consult both ranges with the *current* signature: entries were
    // trained with the signature that preceded their misses by the
    // configured distance, so the hits are misses expected ahead.
    prefetchFor(shortTable, signature);
    prefetchFor(longTable, signature);
}

void
DjoltPrefetcher::onCacheOperate(const sim::CacheOperateInfo &info)
{
    if (info.hit)
        return;
    auto sig_ago = [&](uint32_t calls) -> const uint64_t * {
        if (signatureHistory.size() <= calls)
            return nullptr;
        return &signatureHistory[signatureHistory.size() - 1 - calls];
    };
    if (const uint64_t *s = sig_ago(cfg.shortRange.lookaheadCalls))
        shortTable.record(*s, info.line);
    if (const uint64_t *s = sig_ago(cfg.longRange.lookaheadCalls))
        longTable.record(*s, info.line);
}

} // namespace eip::prefetch
