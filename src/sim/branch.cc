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

PerceptronPredictor::PerceptronPredictor(unsigned rows,
                                         unsigned history_bits)
    : historyBits(history_bits),
      threshold(static_cast<int>(1.93 * history_bits + 14))
{
    EIP_ASSERT(isPowerOf2(rows), "perceptron rows must be a power of two");
    EIP_ASSERT(history_bits >= 1 && history_bits <= 64,
               "perceptron history length out of range");
    weights.assign(static_cast<size_t>(rows) * (history_bits + 1), 0);
}

size_t
PerceptronPredictor::rowOf(Addr pc) const
{
    size_t rows = weights.size() / (historyBits + 1);
    return static_cast<size_t>(xorFold(pc >> 2, floorLog2(rows))) &
           (rows - 1);
}

int
PerceptronPredictor::dot(Addr pc) const
{
    const int8_t *row = &weights[rowOf(pc) * (historyBits + 1)];
    int sum = row[0]; // bias
    for (unsigned i = 0; i < historyBits; ++i) {
        bool h = (history >> i) & 1;
        sum += h ? row[i + 1] : -row[i + 1];
    }
    return sum;
}

bool
PerceptronPredictor::predict(Addr pc) const
{
    return dot(pc) >= 0;
}

void
PerceptronPredictor::update(Addr pc, bool taken)
{
    int sum = dot(pc);
    bool predicted = sum >= 0;
    if (predicted != taken || (sum < threshold && sum > -threshold)) {
        int8_t *row = &weights[rowOf(pc) * (historyBits + 1)];
        auto adjust = [](int8_t &w, bool agree) {
            if (agree && w < 127)
                ++w;
            if (!agree && w > -127)
                --w;
        };
        adjust(row[0], taken);
        for (unsigned i = 0; i < historyBits; ++i) {
            bool h = (history >> i) & 1;
            adjust(row[i + 1], h == taken);
        }
    }
    history = (history << 1) | (taken ? 1 : 0);
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
