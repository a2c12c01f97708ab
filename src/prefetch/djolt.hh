/**
 * @file
 * D-JOLT [35] (Distant Jolt): a refinement of RDIP with more accurate
 * call-history signatures and a dual look-ahead mechanism. Two miss tables
 * are trained at different look-ahead distances (in calls): misses are
 * recorded under the signature that was live N calls earlier, so consulting
 * the *current* signature prefetches the misses expected N calls ahead.
 */

#ifndef EIP_PREFETCH_DJOLT_HH
#define EIP_PREFETCH_DJOLT_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/cache.hh"
#include "sim/prefetcher_api.hh"
#include "util/set_assoc.hh"

namespace eip::prefetch {

/** Configuration of one D-JOLT range (one miss table). */
struct DjoltRange
{
    uint32_t lookaheadCalls = 4; ///< distance in call/return events
    uint32_t entries = 4096;
    uint32_t ways = 4;
    uint32_t linesPerEntry = 6;
};

/** Full configuration; the paper's setup totals 125KB. */
struct DjoltConfig
{
    DjoltRange shortRange{3, 2048, 4, 4};
    DjoltRange longRange{8, 4096, 4, 4};
    uint32_t signatureCalls = 4; ///< calls folded into a signature
};

class DjoltPrefetcher : public sim::Prefetcher
{
  public:
    explicit DjoltPrefetcher(const DjoltConfig &cfg);

    std::string name() const override { return "D-JOLT"; }
    uint64_t storageBits() const override;

    void onCacheOperate(const sim::CacheOperateInfo &info) override;
    void onBranch(sim::Addr pc, trace::BranchType type,
                  sim::Addr target) override;

  private:
    /** One range's miss table: signature -> the lines missed under it. */
    struct Table
    {
        DjoltRange range;
        util::SetAssoc<std::vector<sim::Addr>> sigs;

        explicit Table(const DjoltRange &r)
            : range(r), sigs(r.entries, r.ways)
        {}
        void record(uint64_t sig, sim::Addr line);
    };

    void prefetchFor(Table &table, uint64_t sig);

    DjoltConfig cfg;
    Table shortTable;
    Table longTable;

    uint64_t signature = 0x5eed;
    /** The last signatureCalls call/return tokens (the signature window). */
    std::deque<uint64_t> recentTokens;
    /** Signatures captured at past call events (newest at back). */
    std::deque<uint64_t> signatureHistory;
};

} // namespace eip::prefetch

#endif // EIP_PREFETCH_DJOLT_HH
