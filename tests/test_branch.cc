/**
 * @file
 * Tests for the front-end branch structures: gshare, BTB, RAS, indirect
 * target cache.
 */

#include <gtest/gtest.h>

#include "sim/branch.hh"

namespace eip::sim {
namespace {

TEST(Gshare, LearnsStableDirection)
{
    GsharePredictor pred(10);
    Addr pc = 0x400100;
    // Enough updates to saturate the global history register (10 bits)
    // and then train the now-stable PHT entry.
    for (int i = 0; i < 24; ++i)
        pred.update(pc, true);
    EXPECT_TRUE(pred.predict(pc));
    for (int i = 0; i < 24; ++i)
        pred.update(pc, false);
    EXPECT_FALSE(pred.predict(pc));
}

TEST(Gshare, LearnsAlternatingPatternThroughHistory)
{
    // A strictly alternating branch is mispredicted by a bimodal table but
    // learnable with global history: after warm-up, accuracy approaches 1.
    GsharePredictor pred(12);
    Addr pc = 0x400200;
    bool dir = false;
    int correct = 0, total = 0;
    for (int i = 0; i < 4000; ++i) {
        dir = !dir;
        bool p = pred.predict(pc);
        if (i > 1000) {
            ++total;
            correct += p == dir ? 1 : 0;
        }
        pred.update(pc, dir);
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.95);
}

TEST(Btb, StoresAndEvictsLru)
{
    Btb btb(16, 2); // 8 sets x 2 ways
    Addr pc = 0x1000;
    EXPECT_EQ(btb.lookup(pc), 0u);
    btb.update(pc, 0x2000);
    EXPECT_EQ(btb.lookup(pc), 0x2000u);

    // Update in place.
    btb.update(pc, 0x3000);
    EXPECT_EQ(btb.lookup(pc), 0x3000u);

    // Fill the set (same index bits) and evict the LRU entry.
    Addr conflict1 = pc + 8 * 4;  // same set (pc>>2 & 7)
    Addr conflict2 = pc + 16 * 4;
    btb.update(conflict1, 0xaaa);
    btb.lookup(pc); // make pc MRU
    btb.update(conflict2, 0xbbb);
    EXPECT_EQ(btb.lookup(pc), 0x3000u);     // survived
    EXPECT_EQ(btb.lookup(conflict1), 0u);   // evicted
    EXPECT_EQ(btb.lookup(conflict2), 0xbbbu);
}

TEST(Ras, PushPopOrder)
{
    ReturnAddressStack ras(8);
    ras.push(0x100);
    ras.push(0x200);
    ras.push(0x300);
    EXPECT_EQ(ras.size(), 3u);
    EXPECT_EQ(ras.pop(), 0x300u);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
    EXPECT_EQ(ras.pop(), 0u); // empty
}

TEST(Ras, OverflowDropsOldest)
{
    ReturnAddressStack ras(4);
    for (Addr a = 1; a <= 6; ++a)
        ras.push(a * 0x10);
    EXPECT_EQ(ras.size(), 4u);
    EXPECT_EQ(ras.pop(), 0x60u);
    EXPECT_EQ(ras.pop(), 0x50u);
    EXPECT_EQ(ras.pop(), 0x40u);
    EXPECT_EQ(ras.pop(), 0x30u);
    EXPECT_EQ(ras.pop(), 0u); // 0x10/0x20 were lost to wrap
}

TEST(Ras, Peek)
{
    ReturnAddressStack ras(8);
    ras.push(0xa);
    ras.push(0xb);
    EXPECT_EQ(ras.peek(0), 0xbu);
    EXPECT_EQ(ras.peek(1), 0xau);
    EXPECT_EQ(ras.peek(5), 0u);
}

TEST(Itc, LearnsTargetPerPathHistory)
{
    IndirectTargetCache itc(256);
    Addr pc = 0x5000;
    itc.update(pc, 0x9000);
    // The update rotated the path history, so a subsequent prediction for
    // the same pc uses a new index; train it again and verify stability
    // under a repeating pattern.
    for (int round = 0; round < 16; ++round) {
        Addr predicted = itc.predict(pc);
        itc.update(pc, 0x9000);
        if (round > 8) {
            EXPECT_EQ(predicted, 0x9000u);
        }
    }
}

} // namespace
} // namespace eip::sim
