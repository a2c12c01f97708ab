/**
 * @file
 * Main-memory model: fixed base latency plus randomized row-miss jitter.
 * The latency *variation* matters to the paper (it is why the Entangling
 * prefetcher carries per-destination confidence), so the jitter is on by
 * default.
 */

#ifndef EIP_SIM_DRAM_HH
#define EIP_SIM_DRAM_HH

#include "sim/types.hh"
#include "util/rng.hh"

namespace eip::sim {

/** Simple DRAM: returns the cycle at which a request's data is available. */
class Dram
{
  public:
    Dram(uint32_t base_latency, uint32_t jitter, uint64_t seed = 0xD3A3)
        : baseLatency(base_latency), jitter_(jitter), rng(seed)
    {}

    Dram(const Dram &) = delete;
    Dram &operator=(const Dram &) = delete;

    /** Perform an access issued at @p now; returns the data-ready cycle. */
    Cycle
    access(Cycle now)
    {
        ++*accesses_;
        Cycle extra = 0;
        if (jitter_ > 0 && rng.chance(0.3))
            extra = rng.below(jitter_);
        return now + baseLatency + extra;
    }

    uint64_t accesses() const { return *accesses_; }

    /** Count accesses into @p counter (which must outlive the Dram)
     *  instead of the built-in tally: the CPU counts them straight into
     *  its measured statistics, so resetting those resets this too. */
    void countAccessesInto(uint64_t &counter) { accesses_ = &counter; }

    /**
     * Expected latency of one access, for functional warming: the jitter
     * RNG and the access counter must not advance outside detailed
     * windows (sampled and full runs share the RNG stream per timed
     * access), so warming charges the distribution's mean instead of
     * drawing from it: base + P(jitter) * E[below(jitter)].
     */
    Cycle
    warmLatency() const
    {
        Cycle expected_extra =
            jitter_ > 0 ? (3 * static_cast<Cycle>(jitter_ - 1)) / 20 : 0;
        return baseLatency + expected_extra;
    }

  private:
    uint32_t baseLatency;
    uint32_t jitter_;
    Rng rng;
    uint64_t ownAccesses_ = 0;
    uint64_t *accesses_ = &ownAccesses_;
};

} // namespace eip::sim

#endif // EIP_SIM_DRAM_HH
