/**
 * @file
 * FNL+MMA [44]: Seznec's IPC-1 winner runner-up design combining a
 * Footprint Next Line prefetcher (an enhanced next-line that predicts
 * whether the next lines are worth prefetching) with a Multiple Miss Ahead
 * prefetcher (a miss-successor table walked a fixed look-ahead distance
 * ahead of the current miss).
 */

#ifndef EIP_PREFETCH_FNL_MMA_HH
#define EIP_PREFETCH_FNL_MMA_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/entangled_table.hh"
#include "sim/cache.hh"
#include "sim/prefetcher_api.hh"
#include "util/saturating_counter.hh"
#include "util/set_assoc.hh"

namespace eip::prefetch {

/** Configuration; the paper quotes 97KB for the 8K-entry setup. */
struct FnlMmaConfig
{
    uint32_t fnlBits = 64 * 1024;  ///< worthiness counters (2-bit each)
    uint32_t fnlDepth = 2;         ///< next lines considered per access
    uint32_t mmaEntries = 8192;
    uint32_t mmaWays = 4;
    uint32_t missAhead = 4;        ///< look-ahead distance (in misses)
    uint32_t chase = 3;            ///< chain steps prefetched per miss
};

class FnlMmaPrefetcher : public sim::Prefetcher
{
  public:
    explicit FnlMmaPrefetcher(const FnlMmaConfig &cfg);

    std::string name() const override { return "FNL+MMA"; }
    uint64_t storageBits() const override;

    void onCacheOperate(const sim::CacheOperateInfo &info) override;
    void onCacheFill(const sim::CacheFillInfo &info) override;

    /** Arms a ghost set of miss-ahead targets lost to MMA evictions. */
    void enableBlame() override;
    /** `pair_evicted` when @p line was an evicted entry's miss-ahead
     *  target not re-learned since. */
    obs::MissBlame blame(sim::Addr line, sim::Addr pc) override;

  private:
    size_t fnlIndex(sim::Addr line) const;

    FnlMmaConfig cfg;
    std::vector<SaturatingCounter> fnl;
    /** Miss line -> the miss seen `missAhead` misses later (0: none). */
    util::SetAssoc<sim::Addr> mma;

    /** Recent misses (newest at back) for miss-ahead training. */
    std::vector<sim::Addr> missQueue;
    /** Miss-attribution shadow (DESIGN.md §3.11); null unless armed. */
    std::unique_ptr<core::GhostPairSet> ghost_;
};

} // namespace eip::prefetch

#endif // EIP_PREFETCH_FNL_MMA_HH
