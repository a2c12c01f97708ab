/**
 * @file
 * Tests for the cache's LRU replacement: sim::Cache driven in lockstep
 * with a naive per-set LRU list over a seeded stream of demand,
 * wrong-path and warming accesses and prefetches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sim/cache.hh"
#include "sim/dram.hh"
#include "util/rng.hh"

namespace eip::sim {
namespace {

constexpr uint32_t kSets = 16;
constexpr uint32_t kWays = 4;
constexpr uint32_t kMshrs = 4;

/** Records the last operate verdict and every fill; with
 *  prefetchOnMiss set it prefetches each missing line from the miss
 *  hook itself. */
class Recorder : public Prefetcher
{
  public:
    std::string name() const override { return "recorder"; }
    uint64_t storageBits() const override { return 0; }

    void
    onCacheOperate(const CacheOperateInfo &info) override
    {
        lastHit = info.hit;
        if (prefetchOnMiss && !info.hit)
            owner->enqueuePrefetch(info.line);
    }

    void
    onCacheFill(const CacheFillInfo &info) override
    {
        fills.push_back(info);
    }

    bool lastHit = false;
    bool prefetchOnMiss = false;
    std::vector<CacheFillInfo> fills;
};

/** A resident line of the reference model. */
struct ModelLine
{
    Addr line;
    bool prefetched;
    bool used;
};

struct ModelFill
{
    std::optional<Addr> evicted;
    bool evictedUnusedPrefetch = false;
};

/** One set of the reference model: most recently used first. */
struct ModelSet
{
    std::list<ModelLine> lines;

    std::list<ModelLine>::iterator
    position(Addr line)
    {
        return std::find_if(lines.begin(), lines.end(),
                            [&](const ModelLine &l) {
                                return l.line == line;
                            });
    }

    ModelLine *
    find(Addr line)
    {
        auto it = position(line);
        return it == lines.end() ? nullptr : &*it;
    }

    void
    touch(Addr line)
    {
        lines.splice(lines.begin(), lines, position(line));
    }

    ModelFill
    install(const ModelLine &incoming)
    {
        ModelFill fill;
        if (lines.size() == kWays) {
            fill.evicted = lines.back().line;
            fill.evictedUnusedPrefetch =
                lines.back().prefetched && !lines.back().used;
            lines.pop_back();
        }
        lines.push_front(incoming);
        return fill;
    }
};

enum class Op
{
    Demand,
    Speculative,
    Warm,
    /** A warming access whose miss hook prefetches the line itself: the
     *  functional prefetch installs it and the access adopts that copy. */
    WarmAdopt,
    Prefetch,
};

void
expectMatchesNaiveLruModel(uint64_t seed)
{
    CacheConfig cfg;
    cfg.sizeBytes = 64 * kSets * kWays;
    cfg.ways = kWays;
    cfg.mshrEntries = kMshrs;
    cfg.pqEntries = 4;
    cfg.pqIssuePerCycle = 2;
    Dram dram{100, 0};
    Cache cache(cfg);
    cache.setDram(&dram);
    Recorder rec;
    cache.attachPrefetcher(&rec);

    // Ten lines per 4-way set, in three of the sixteen sets.
    const uint32_t used_sets[] = {1, 6, 11};
    std::map<uint32_t, ModelSet> model;
    std::set<Addr> seen;
    Rng rng(seed);
    Cycle now = 0;
    uint64_t evictions = 0;
    uint64_t hits = 0;

    for (int step = 0; step < 3000; ++step) {
        uint32_t set = used_sets[rng.below(3)];
        Addr line = set + kSets * (1 + rng.below(10));
        Op op = static_cast<Op>(rng.below(5));
        std::string where = "seed " + std::to_string(seed) + " step " +
                            std::to_string(step) + " line " +
                            std::to_string(line) + " op " +
                            std::to_string(static_cast<int>(op));
        seen.insert(line);
        ModelSet &mset = model[set];
        ModelLine *resident = mset.find(line);
        rec.fills.clear();

        switch (op) {
          case Op::Demand: {
            Cache::Access a = cache.demandAccess(line, 0x400000, now);
            ASSERT_FALSE(a.mshrFull) << where;
            ASSERT_EQ(a.hit, resident != nullptr) << where;
            break;
          }
          case Op::Speculative:
            cache.speculativeAccess(line, 0x400000, now);
            ASSERT_EQ(rec.lastHit, resident != nullptr) << where;
            break;
          case Op::Warm:
            cache.warmAccess(line, 0x400000, now);
            ASSERT_EQ(rec.lastHit, resident != nullptr) << where;
            break;
          case Op::WarmAdopt:
            cache.setWarming(true);
            rec.prefetchOnMiss = true;
            cache.warmAccess(line, 0x400000, now);
            rec.prefetchOnMiss = false;
            cache.setWarming(false);
            ASSERT_EQ(rec.lastHit, resident != nullptr) << where;
            break;
          case Op::Prefetch:
            ASSERT_TRUE(cache.enqueuePrefetch(line)) << where;
            break;
        }
        // Tick until every fill has landed and the queue is empty.
        for (int guard = 0;
             cache.freeMshrs() < kMshrs || cache.pqOccupancy() > 0;
             ++guard) {
            ASSERT_LT(guard, 1000) << where << ": MSHRs never drained";
            cache.tick(++now);
        }
        ++now;

        // The model: hits move to the front (a demand or warming hit
        // marks a prefetched line used, a wrong-path hit does not); a
        // miss installs at the front and evicts the back of a full set.
        // An adopted prefetch is a prefetched line, used at once.
        std::optional<ModelFill> want;
        bool by_prefetch = op == Op::Prefetch || op == Op::WarmAdopt;
        if (resident != nullptr) {
            ++hits;
            if (op != Op::Prefetch) {
                if (op != Op::Speculative)
                    resident->used = true;
                mset.touch(line);
            }
        } else {
            want = mset.install(
                ModelLine{line, by_prefetch, op != Op::Prefetch});
        }

        ASSERT_EQ(rec.fills.size(), want.has_value() ? 1u : 0u) << where;
        if (want.has_value()) {
            const CacheFillInfo &fill = rec.fills.front();
            ASSERT_EQ(fill.line, line) << where;
            ASSERT_EQ(fill.byPrefetch, by_prefetch) << where;
            ASSERT_EQ(fill.evictedValid, want->evicted.has_value()) << where;
            if (want->evicted.has_value()) {
                ASSERT_EQ(fill.evictedLine, *want->evicted) << where;
                ASSERT_EQ(fill.evictedUnusedPrefetch,
                          want->evictedUnusedPrefetch)
                    << where;
                ++evictions;
            }
        }
        for (Addr probe : seen) {
            ASSERT_EQ(cache.probe(probe),
                      model[probe % kSets].find(probe) != nullptr)
                << where << ": probe " << probe;
        }
    }
    // The stream must exercise both outcomes and full sets.
    EXPECT_GT(hits, 500u);
    EXPECT_GT(evictions, 500u);
}

TEST(Replacement, CacheMatchesNaiveLruModel)
{
    for (uint64_t seed : {1, 2, 3})
        expectMatchesNaiveLruModel(seed);
}

TEST(Replacement, HitPromotesTheLineOverAnOlderFill)
{
    // Fill a set with A then B, hit A, install C: LRU evicts B.
    CacheConfig cfg;
    cfg.sizeBytes = 64 * 32 * 2; // 32 sets, 2 ways
    cfg.ways = 2;
    Dram dram{100, 0};
    Cache cache(cfg);
    cache.setDram(&dram);
    Cycle now = 0;
    auto fill = [&](Addr line) {
        cache.demandAccess(line, 0, now);
        now += 200;
        cache.tick(now);
    };
    Addr a = 1, b = 1 + 32, c = 1 + 64;
    fill(a);
    fill(b);
    EXPECT_TRUE(cache.demandAccess(a, 0, now).hit);
    fill(c);
    EXPECT_TRUE(cache.probe(a));
    EXPECT_FALSE(cache.probe(b));
    EXPECT_TRUE(cache.probe(c));
}

} // namespace
} // namespace eip::sim
