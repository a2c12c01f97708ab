/**
 * @file
 * Front-end branch structures: gshare conditional predictor, set-associative
 * BTB, return address stack, and an indirect target cache (the "Target
 * Cache" for indirect branches mentioned in §IV-A).
 */

#ifndef EIP_SIM_BRANCH_HH
#define EIP_SIM_BRANCH_HH

#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"
#include "trace/instruction.hh"
#include "util/saturating_counter.hh"
#include "util/set_assoc.hh"

namespace eip::sim {

/** gshare: global-history-XOR-PC indexed table of 2-bit counters. */
class GsharePredictor
{
  public:
    explicit GsharePredictor(unsigned index_bits);

    /** Predicted direction of the branch at @p pc. */
    bool predict(Addr pc) const;
    /** Train with the actual outcome (also rolls the global history). */
    void update(Addr pc, bool taken);

  private:
    size_t index(Addr pc) const;

    unsigned indexBits;
    uint64_t history = 0;
    std::vector<SaturatingCounter> table;
};

/** Set-associative branch target buffer with LRU replacement. */
class Btb
{
  public:
    Btb(uint32_t entries, uint32_t ways) : table(entries, ways) {}

    /** @return target of @p pc, or 0 when the BTB misses. */
    Addr lookup(Addr pc);
    void update(Addr pc, Addr target);

  private:
    uint32_t
    setOf(Addr pc) const
    {
        return static_cast<uint32_t>(pc >> 2) & (table.sets() - 1);
    }

    util::SetAssoc<Addr> table; ///< pc -> target
};

/** Classic return address stack; overflows wrap (oldest entries lost). */
class ReturnAddressStack
{
  public:
    explicit ReturnAddressStack(uint32_t entries)
        : storage(entries)
    {}

    void
    push(Addr return_pc)
    {
        top = (top + 1) % storage.size();
        storage[top] = return_pc;
        if (depth < storage.size())
            ++depth;
    }

    /** Pop the predicted return target; 0 when empty. */
    Addr
    pop()
    {
        if (depth == 0)
            return 0;
        Addr value = storage[top];
        top = (top + storage.size() - 1) % storage.size();
        --depth;
        return value;
    }

    /** Peek at the i-th entry from the top (for RDIP-style signatures). */
    Addr
    peek(uint32_t i) const
    {
        if (i >= depth)
            return 0;
        return storage[(top + storage.size() - i) % storage.size()];
    }

    uint32_t size() const { return depth; }

  private:
    std::vector<Addr> storage;
    size_t top = 0;
    uint32_t depth = 0;
};

/** Direct-mapped indirect target cache indexed by PC ⊕ path history. */
class IndirectTargetCache
{
  public:
    explicit IndirectTargetCache(uint32_t entries);

    Addr predict(Addr pc) const;
    void update(Addr pc, Addr target);

  private:
    size_t index(Addr pc) const;

    std::vector<Addr> table;
    uint64_t pathHistory = 0;
};

} // namespace eip::sim

#endif // EIP_SIM_BRANCH_HH
