/**
 * @file
 * One set-associative table with stamp replacement: the way array, the
 * per-table stamp clock and the victim rule shared by the BTB, the MANA,
 * RDIP, D-JOLT and FNL+MMA tables and the split bb-size table.
 *
 * The caller picks the set (each structure keeps its own index hash) and
 * the replacement discipline: touch() on a hit gives LRU, never touching
 * gives FIFO. insert() claims the victim — the first invalid way in way
 * order, otherwise the way with the strictly smallest stamp — and stamps
 * it with the next clock value. The payload is left as the victim held
 * it, for the caller to reset (a table of vectors keeps their capacity).
 *
 * A stamp of 0 marks an invalid way. The clock pre-increments, so every
 * valid way holds a stamp >= 1 and the victim rule is one scan for the
 * smallest stamp that keeps the lowest way on a tie.
 */

#ifndef EIP_UTIL_SET_ASSOC_HH
#define EIP_UTIL_SET_ASSOC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bitops.hh"
#include "util/panic.hh"

namespace eip::util {

template <typename Payload>
class SetAssoc
{
  public:
    struct Way
    {
        uint64_t key = 0;
        uint64_t stamp = 0; ///< 0 = invalid, else clock at last insert/touch
        Payload payload{};

        bool valid() const { return stamp != 0; }
    };

    /** @p entries / @p ways sets (a power of two), every way invalid and
     *  holding @p init. */
    SetAssoc(uint32_t entries, uint32_t ways, const Payload &init = Payload{})
        : sets_(ways == 0 ? 0 : entries / ways), ways_(ways),
          setBits_(floorLog2(sets_))
    {
        EIP_ASSERT(ways != 0 && entries % ways == 0,
                   "entries must be a multiple of ways");
        EIP_ASSERT(isPowerOf2(sets_), "set count must be a power of 2");
        table_.assign(entries, Way{0, 0, init});
    }

    uint32_t sets() const { return sets_; }
    uint32_t ways() const { return ways_; }
    size_t size() const { return table_.size(); }

    /** The set of @p key under the xor-fold index most tables use. */
    uint32_t
    foldedSet(uint64_t key) const
    {
        return static_cast<uint32_t>(xorFold(key, setBits_)) & (sets_ - 1);
    }

    /** The valid way of @p set holding @p key, or nullptr. No touch. */
    Way *
    find(uint32_t set, uint64_t key)
    {
        EIP_DASSERT(set < sets_, "set index out of range");
        Way *base = &table_[static_cast<size_t>(set) * ways_];
        for (uint32_t w = 0; w < ways_; ++w) {
            if (base[w].valid() && base[w].key == key)
                return &base[w];
        }
        return nullptr;
    }

    const Way *
    find(uint32_t set, uint64_t key) const
    {
        return const_cast<SetAssoc *>(this)->find(set, key);
    }

    /** Make @p way the most recently used of its set. */
    void touch(Way &way) { way.stamp = ++clock_; }

    /**
     * Claim the victim way of @p set for @p key and stamp it. When the
     * victim is valid, @p on_evict(victim) runs first and still sees its
     * old key and payload.
     */
    template <typename OnEvict>
    Way &
    insert(uint32_t set, uint64_t key, OnEvict &&on_evict)
    {
        EIP_DASSERT(set < sets_, "set index out of range");
        Way *base = &table_[static_cast<size_t>(set) * ways_];
        Way *victim = base;
        for (uint32_t w = 1; w < ways_; ++w) {
            if (base[w].stamp < victim->stamp)
                victim = &base[w];
        }
        if (victim->valid())
            on_evict(static_cast<const Way &>(*victim));
        victim->key = key;
        victim->stamp = ++clock_;
        return *victim;
    }

    Way &
    insert(uint32_t set, uint64_t key)
    {
        return insert(set, key, [](const Way &) {});
    }

    /** Way by flat position (set * ways + way), for tables that link
     *  entries by position. */
    Way &at(size_t index) { return table_[index]; }
    size_t
    indexOf(const Way &way) const
    {
        return static_cast<size_t>(&way - table_.data());
    }

  private:
    uint32_t sets_;
    uint32_t ways_;
    unsigned setBits_;
    uint64_t clock_ = 0;
    std::vector<Way> table_;
};

} // namespace eip::util

#endif // EIP_UTIL_SET_ASSOC_HH
