/**
 * @file
 * RDIP [29]: Return-address-stack Directed Instruction Prefetching. The
 * prefetcher keeps a shadow RAS; on every call/return it hashes the top
 * entries into a signature, consults a miss table of up to 3 trigger lines
 * (each with an 8-bit footprint of following lines) and prefetches them.
 * Misses observed while a signature is live are attributed to it when the
 * next call/return switches the signature.
 */

#ifndef EIP_PREFETCH_RDIP_HH
#define EIP_PREFETCH_RDIP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/cache.hh"
#include "sim/prefetcher_api.hh"
#include "util/set_assoc.hh"

namespace eip::prefetch {

/** Configuration: the paper evaluates a 4K-entry, 63KB miss table. */
struct RdipConfig
{
    uint32_t entries = 4096;
    uint32_t ways = 4;
    uint32_t triggers = 3;       ///< trigger regions per signature
    uint32_t footprintLines = 8;
    uint32_t rasDepth = 2;       ///< RAS entries folded into the signature
    uint32_t shadowRasEntries = 64;
};

class RdipPrefetcher : public sim::Prefetcher
{
  public:
    explicit RdipPrefetcher(const RdipConfig &cfg);

    std::string name() const override { return "RDIP"; }
    uint64_t storageBits() const override;

    void onCacheOperate(const sim::CacheOperateInfo &info) override;
    void onBranch(sim::Addr pc, trace::BranchType type,
                  sim::Addr target) override;

  private:
    struct Trigger
    {
        bool valid = false;
        sim::Addr line = 0;
        uint8_t footprint = 0;
    };

    uint64_t computeSignature() const;
    /** Commit the pending miss log to the previous signature's entry. */
    void commitMisses();
    void prefetchFor(uint64_t sig);

    RdipConfig cfg;
    /** Signature -> its trigger regions. */
    util::SetAssoc<std::vector<Trigger>> table;

    std::vector<sim::Addr> shadowRas;
    uint64_t currentSignature = 0;
    std::vector<sim::Addr> missLog; ///< line misses under currentSignature
};

} // namespace eip::prefetch

#endif // EIP_PREFETCH_RDIP_HH
