/**
 * @file
 * Standalone basic-block-size table, used by the split-storage variant of
 * the Entangling prefetcher (the paper's §III-C3 closing remark: "Storing
 * basic block sizes and entangled pairs in different structures is an
 * alternative to a unified Entangled table, likely beneficial for
 * low-storage configurations. We leave this study for future work.").
 *
 * Each entry is just a 10-bit folded tag plus a 6-bit size, so a given
 * budget tracks ~5x more basic blocks than unified entries would.
 */

#ifndef EIP_CORE_BB_SIZE_TABLE_HH
#define EIP_CORE_BB_SIZE_TABLE_HH

#include <algorithm>
#include <cstdint>

#include "sim/types.hh"
#include "util/set_assoc.hh"

namespace eip::core {

/** Set-associative {head -> basic-block size} store with FIFO
 *  replacement: entries are stamped on insert and never touched. The
 *  modelled 10-bit tag is a function of the line, so the model matches
 *  on the full line. */
class BbSizeTable
{
  public:
    BbSizeTable(uint32_t entries, uint32_t ways) : table(entries, ways) {}

    /** Record (or grow) the size of the block headed by @p line. */
    void
    record(sim::Addr line, unsigned size)
    {
        uint32_t set = table.foldedSet(line);
        auto *e = table.find(set, line);
        if (e == nullptr) {
            e = &table.insert(set, line);
            e->payload = 0;
        }
        if (size > e->payload)
            e->payload = static_cast<uint8_t>(std::min(size, 63u));
    }

    /** Size of the block headed by @p line; 0 when unknown. */
    unsigned
    lookup(sim::Addr line) const
    {
        const auto *e = table.find(table.foldedSet(line), line);
        return e != nullptr ? e->payload : 0;
    }

    /** Storage: 10-bit tag + 6-bit size per entry + per-set FIFO bits. */
    uint64_t
    storageBits() const
    {
        return table.size() * (10 + 6) +
               static_cast<uint64_t>(table.sets()) * floorLog2(table.ways());
    }

  private:
    util::SetAssoc<uint8_t> table; ///< head line -> block size
};

} // namespace eip::core

#endif // EIP_CORE_BB_SIZE_TABLE_HH
