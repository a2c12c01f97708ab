/**
 * @file
 * Integration tests for the CPU model: IPC sanity, determinism, warm-up
 * handling, configuration effects (ideal L1I, larger L1I, ROB size,
 * physical addressing) and stall accounting.
 */

#include <gtest/gtest.h>

#include "sim/cpu.hh"
#include "trace/workloads.hh"

namespace eip::sim {
namespace {

SimStats
runTiny(const SimConfig &cfg, uint64_t instructions = 150000,
        uint64_t warmup = 30000, uint64_t seed = 1)
{
    trace::Workload w = trace::tinyWorkload(seed);
    trace::Program prog = trace::buildProgram(w.program);
    trace::Executor exec(prog, w.exec);
    Cpu cpu(cfg);
    return cpu.run(exec, instructions, warmup);
}

TEST(Cpu, RetiresRequestedInstructions)
{
    SimConfig cfg;
    SimStats stats = runTiny(cfg, 100000, 0);
    EXPECT_GE(stats.instructions, 100000u);
    EXPECT_LT(stats.instructions, 100000u + cfg.retireWidth);
    EXPECT_GT(stats.cycles, 0u);
}

TEST(Cpu, IpcWithinPhysicalBounds)
{
    SimConfig cfg;
    SimStats stats = runTiny(cfg);
    EXPECT_GT(stats.ipc(), 0.05);
    EXPECT_LE(stats.ipc(), cfg.fetchWidth);
}

TEST(Cpu, Deterministic)
{
    SimConfig cfg;
    SimStats a = runTiny(cfg);
    SimStats b = runTiny(cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1i.demandMisses, b.l1i.demandMisses);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
}

TEST(Cpu, WarmupResetsStatistics)
{
    SimConfig cfg;
    SimStats warm = runTiny(cfg, 100000, 50000);
    // Only the measured window is reported.
    EXPECT_GE(warm.instructions, 100000u);
    EXPECT_LT(warm.instructions, 101000u);
    // A warmed run has fewer cold misses per instruction than an unwarmed
    // one over the same window length.
    SimStats cold = runTiny(cfg, 100000, 0);
    EXPECT_LE(warm.l1iMpki(), cold.l1iMpki() * 1.5 + 1.0);
}

TEST(Cpu, IdealL1iIsUpperBound)
{
    SimConfig normal;
    SimConfig ideal;
    ideal.l1i.idealHit = true;
    SimStats n = runTiny(normal);
    SimStats i = runTiny(ideal);
    EXPECT_GE(i.ipc(), n.ipc());
    EXPECT_EQ(i.l1i.demandMisses, 0u);
}

TEST(Cpu, LargerL1iDoesNotHurt)
{
    SimConfig small;
    SimConfig big;
    big.enlargeL1i(96);
    SimStats s = runTiny(small);
    SimStats b = runTiny(big);
    EXPECT_LE(b.l1i.demandMisses, s.l1i.demandMisses);
    EXPECT_GE(b.ipc(), s.ipc() * 0.98);
}

TEST(Cpu, TinyRobThrottlesIpc)
{
    SimConfig wide;
    SimConfig narrow;
    narrow.robEntries = 16;
    SimStats w = runTiny(wide);
    SimStats n = runTiny(narrow);
    EXPECT_LT(n.ipc(), w.ipc());
    EXPECT_GT(n.fetchStallRobFull, w.fetchStallRobFull);
}

TEST(Cpu, BranchStatisticsPopulated)
{
    SimConfig cfg;
    SimStats stats = runTiny(cfg);
    EXPECT_GT(stats.branches, stats.instructions / 20);
    EXPECT_GT(stats.branchMispredicts, 0u);
    EXPECT_LT(stats.branchMispredicts, stats.branches / 2);
}

TEST(Cpu, StallAccountingCoversCycles)
{
    SimConfig cfg;
    SimStats stats = runTiny(cfg);
    // The four taxonomy buckets partition zero-fetch cycles exactly: no
    // stall cycle is unattributed and none is charged twice.
    uint64_t attributed = stats.fetchStallLineMiss +
                          stats.fetchStallFtqEmptyMispredict +
                          stats.fetchStallFtqEmptyStarved +
                          stats.fetchStallRobFull;
    EXPECT_EQ(attributed, stats.fetchIdleCycles);
    EXPECT_GT(attributed, 0u);
    EXPECT_LE(stats.fetchIdleCycles, stats.cycles);
    EXPECT_EQ(stats.fetchStallFtqEmpty(),
              stats.fetchStallFtqEmptyMispredict +
                  stats.fetchStallFtqEmptyStarved);
}

TEST(Cpu, RunAfterFunctionalWarmingKeepsWatchdogRelative)
{
    // Warming at 1000 cycles per instruction moves the clock far past
    // an absolute watchdog sized for the short run that follows; the
    // deadlock bound must count from where the run starts.
    trace::Workload w = trace::tinyWorkload();
    trace::Program prog = trace::buildProgram(w.program);
    trace::Executor exec(prog, w.exec);
    Cpu cpu{SimConfig{}};
    cpu.warmFunctional(exec, 20000, 1000, 1);
    SimStats stats = cpu.run(exec, 1000);
    EXPECT_GE(stats.instructions, 1000u);
    // Warming cycles are never measured.
    EXPECT_LT(stats.cycles, 1000u * 1000u);
}

TEST(Cpu, SecondRunReportsOnlyItsOwnStatistics)
{
    trace::Workload w = trace::tinyWorkload();
    trace::Program prog = trace::buildProgram(w.program);
    trace::Executor exec(prog, w.exec);
    Cpu cpu{SimConfig{}};
    cpu.run(exec, 100000, 0);
    SimStats second = cpu.run(exec, 1000, 0);
    EXPECT_GE(second.instructions, 1000u);
    EXPECT_LT(second.instructions, 1000u + cpu.config().retireWidth);
    EXPECT_LE(second.fetchIdleCycles, second.cycles);
    EXPECT_LE(second.branches, second.instructions);
}

TEST(Cpu, PhysicalAddressingRunsAndDiffers)
{
    SimConfig virt;
    SimConfig phys;
    phys.physicalL1I = true;
    SimStats v = runTiny(virt);
    SimStats p = runTiny(phys);
    // Same workload; scattered pages change conflict behaviour somewhat
    // but the run must stay in the same ballpark.
    EXPECT_GT(p.ipc(), v.ipc() * 0.7);
    EXPECT_LT(p.ipc(), v.ipc() * 1.3);
}

TEST(Cpu, MemoryHierarchyTrafficFlowsDownward)
{
    SimConfig cfg;
    SimStats stats = runTiny(cfg);
    // Every L2 access comes from an L1 miss.
    EXPECT_LE(stats.l2.demandAccesses,
              stats.l1i.demandMisses + stats.l1d.demandMisses +
                  stats.l1i.mshrMerges + stats.l1d.mshrMerges + 16);
    EXPECT_GT(stats.l2.demandAccesses, 0u);
    EXPECT_LE(stats.llc.demandAccesses, stats.l2.demandAccesses);
    EXPECT_LE(stats.dramAccesses, stats.llc.demandAccesses);
}

TEST(Cpu, HigherMispredictPenaltyLowersIpc)
{
    SimConfig cheap;
    cheap.executeFlushPenalty = 2;
    SimConfig costly;
    costly.executeFlushPenalty = 40;
    SimStats a = runTiny(cheap);
    SimStats b = runTiny(costly);
    EXPECT_GT(a.ipc(), b.ipc());
}

TEST(SimConfig, DescribeMentionsKeyParameters)
{
    SimConfig cfg;
    std::string text = cfg.describe();
    EXPECT_NE(text.find("L1I"), std::string::npos);
    EXPECT_NE(text.find("32KB"), std::string::npos);
    EXPECT_NE(text.find("DRAM"), std::string::npos);
    EXPECT_NE(text.find("virtual"), std::string::npos);
    EXPECT_NE(text.find("Branch: gshare 2^16"), std::string::npos);
}

TEST(SimConfig, EnlargeL1iKeepsGeometryValid)
{
    SimConfig cfg;
    cfg.enlargeL1i(64);
    EXPECT_EQ(cfg.l1i.sizeBytes, 64u * 1024);
    EXPECT_EQ(cfg.l1i.ways, 16u);
    EXPECT_EQ(cfg.l1i.sets(), 64u);
    cfg.enlargeL1i(96);
    EXPECT_EQ(cfg.l1i.ways, 24u);
}

} // namespace
} // namespace eip::sim
