/**
 * @file
 * MANA [5]: a microarchitected stream prefetcher. The dynamic access
 * stream is partitioned into spatial regions (a trigger line plus an 8-bit
 * footprint of the following lines); the MANA table links each trigger to
 * its successor trigger, and the prefetcher walks this chain a fixed number
 * of steps ahead of the demand stream, prefetching each region's footprint.
 */

#ifndef EIP_PREFETCH_MANA_HH
#define EIP_PREFETCH_MANA_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/entangled_table.hh"
#include "sim/cache.hh"
#include "sim/prefetcher_api.hh"
#include "util/set_assoc.hh"

namespace eip::prefetch {

/** Configuration: the paper evaluates 2K (9KB), 4K (17.25KB) and 8K
 *  (74.18KB) MANA-table entries. */
struct ManaConfig
{
    uint32_t entries = 4096;
    uint32_t ways = 4;
    uint32_t footprintLines = 8; ///< lines covered after the trigger
    uint32_t lookahead = 3;      ///< chain steps walked per trigger
};

/** Internal event counters exported through registerStats(). */
struct ManaStats
{
    uint64_t tableHits = 0;        ///< prediction lookup found the trigger
    uint64_t tableMisses = 0;
    uint64_t inserts = 0;          ///< new trigger entries allocated
    uint64_t evictions = 0;        ///< valid entries displaced by inserts
    uint64_t regionsCommitted = 0; ///< spatial regions closed by training
    uint64_t chainSteps = 0;       ///< successor links walked per lookahead
    uint64_t chainBreaks = 0;      ///< walks cut short by a stale link
};

class ManaPrefetcher : public sim::Prefetcher
{
  public:
    explicit ManaPrefetcher(const ManaConfig &cfg);

    std::string name() const override;
    uint64_t storageBits() const override;

    /** Exports "mana.*" counters (cumulative over the whole run). */
    void registerStats(obs::CounterRegistry &reg) override;

    void onCacheOperate(const sim::CacheOperateInfo &info) override;

    /** Arms a ghost set of region lines lost to MANA-table evictions. */
    void enableBlame() override;
    /** `pair_evicted` when @p line was covered by an evicted region. */
    obs::MissBlame blame(sim::Addr line, sim::Addr pc) override;

    const ManaStats &analysis() const { return stats_; }

  private:
    /** One trigger's spatial region and its link to the next trigger. */
    struct Region
    {
        uint8_t footprint = 0;  ///< bit i: line+1+i was accessed
        uint32_t successor = 0; ///< table position of the next trigger
        bool successorValid = false;
    };
    using Table = util::SetAssoc<Region>;
    using Entry = Table::Way; ///< key: the trigger line

    Entry *find(sim::Addr line);
    Entry *findOrInsert(sim::Addr line);
    void prefetchRegion(const Entry &e);
    /** Ghost every line of @p e's region (blame armed, entry evicted). */
    void ghostRecordRegion(const Entry &e);
    /** Un-ghost every line the region of @p e covers (re-learned). */
    void ghostEraseRegion(const Entry &e);

    ManaConfig cfg;
    Table table;
    ManaStats stats_;
    /** Miss-attribution shadow (DESIGN.md §3.11); null unless armed. */
    std::unique_ptr<core::GhostPairSet> ghost_;

    // Training state: the current spatial region being recorded.
    bool hasTrigger = false;
    sim::Addr triggerLine = 0;
    uint8_t triggerFootprint = 0;
};

} // namespace eip::prefetch

#endif // EIP_PREFETCH_MANA_HH
