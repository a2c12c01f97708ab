#include "sim/branch.hh"

#include "util/bitops.hh"
#include "util/panic.hh"

namespace eip::sim {

GsharePredictor::GsharePredictor(unsigned index_bits)
    : indexBits(index_bits)
{
    EIP_ASSERT(index_bits >= 4 && index_bits <= 24,
               "gshare index width out of range");
    table.assign(size_t{1} << index_bits,
                 SaturatingCounter(2, /*initial=*/2)); // weakly taken
}

size_t
GsharePredictor::index(Addr pc) const
{
    return ((pc >> 2) ^ history) & mask(indexBits);
}

bool
GsharePredictor::predict(Addr pc) const
{
    return table[index(pc)].strong();
}

void
GsharePredictor::update(Addr pc, bool taken)
{
    SaturatingCounter &ctr = table[index(pc)];
    if (taken)
        ctr.increment();
    else
        ctr.decrement();
    history = ((history << 1) | (taken ? 1 : 0)) & mask(indexBits);
}

Addr
Btb::lookup(Addr pc)
{
    auto *way = table.find(setOf(pc), pc);
    if (way == nullptr)
        return 0;
    table.touch(*way);
    return way->payload;
}

void
Btb::update(Addr pc, Addr target)
{
    uint32_t set = setOf(pc);
    auto *way = table.find(set, pc);
    if (way != nullptr)
        table.touch(*way);
    else
        way = &table.insert(set, pc);
    way->payload = target;
}

IndirectTargetCache::IndirectTargetCache(uint32_t entries)
    : table(entries, 0)
{
    EIP_ASSERT(isPowerOf2(entries), "ITC size must be a power of 2");
}

size_t
IndirectTargetCache::index(Addr pc) const
{
    return ((pc >> 2) ^ pathHistory) & (table.size() - 1);
}

Addr
IndirectTargetCache::predict(Addr pc) const
{
    return table[index(pc)];
}

void
IndirectTargetCache::update(Addr pc, Addr target)
{
    table[index(pc)] = target;
    pathHistory = ((pathHistory << 3) ^ (target >> 2)) & (table.size() - 1);
}

} // namespace eip::sim
