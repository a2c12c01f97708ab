/**
 * @file
 * Tests for the event-driven cycle scheduler (DESIGN.md §3.8):
 * nextEventCycle()/inertWindow() pinned on hand-built pipeline states
 * through CpuTestPeer, skipIdleCycles' bulk stall accounting, and full
 * skip-vs-no-skip artifact equality through the harness — including runs
 * with a warm-up boundary and an interval sampler, so a skip that jumped
 * a measurement edge or a sampler stride would show up as divergence.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/artifacts.hh"
#include "harness/runner.hh"
#include "sim/cpu.hh"
#include "trace/workloads.hh"

namespace eip::sim {

/** Builds pipeline states by hand (friend of Cpu). */
class CpuTestPeer
{
  public:
    static Cycle now(const Cpu &cpu) { return cpu.now; }

    static void
    pushRob(Cpu &cpu, Cycle done)
    {
        Cpu::RobEntry entry;
        entry.done = done;
        cpu.rob.push_back(entry);
    }

    /** Append a one-instruction FTQ group in the given access state. */
    static void
    pushFtqGroup(Cpu &cpu, Addr line, Cycle ready, bool access_pending)
    {
        Cpu::FtqGroup &group = cpu.ftq.pushSlot();
        group.line = line;
        group.ready = ready;
        group.accessPending = access_pending;
        group.insts.clear();
        group.insts.push_back(trace::Instruction{});
        group.consumed = 0;
        group.mispredict.clear();
        group.mispredict.push_back(0);
        ++cpu.ftqInsts;
        if (access_pending)
            ++cpu.ftqPendingAccess_;
    }

    static void
    blockPredictor(Cpu &cpu)
    {
        cpu.predictBlockedOnBranch = true;
    }

    static void
    setPredictStall(Cpu &cpu, Cycle until)
    {
        cpu.predictStallUntil = until;
    }

    static void
    setL1iAccessBlocked(Cpu &cpu, bool blocked)
    {
        cpu.l1iAccessBlocked_ = blocked;
    }

    static void skip(Cpu &cpu, Cycle bound) { cpu.skipIdleCycles(bound); }

    static uint64_t idle(const Cpu &cpu)
    {
        return cpu.stats_.fetchIdleCycles;
    }
    static uint64_t lineMiss(const Cpu &cpu)
    {
        return cpu.stats_.fetchStallLineMiss;
    }
    static uint64_t robFull(const Cpu &cpu)
    {
        return cpu.stats_.fetchStallRobFull;
    }
    static uint64_t emptyMispredict(const Cpu &cpu)
    {
        return cpu.stats_.fetchStallFtqEmptyMispredict;
    }
    static uint64_t emptyStarved(const Cpu &cpu)
    {
        return cpu.stats_.fetchStallFtqEmptyStarved;
    }
};

namespace {

constexpr Cycle kBound = 1'000'000;

TEST(SkipScheduler, FreshCpuHasNoWindow)
{
    // An idle predictor with FTQ room acts next cycle: nothing to skip,
    // and the predictor wake (clamped to now + 1) is the next event.
    Cpu cpu{SimConfig{}};
    EXPECT_EQ(cpu.inertWindow(kBound), 0u);
    EXPECT_EQ(cpu.nextEventCycle(kBound), 1u);

    // With the predictor blocked and nothing in flight there is no event
    // at all: the horizon is the bound itself.
    Cpu blocked{SimConfig{}};
    CpuTestPeer::blockPredictor(blocked);
    EXPECT_EQ(blocked.nextEventCycle(kBound), kBound);
    EXPECT_EQ(blocked.nextEventCycle(), kCycleNever);
}

TEST(SkipScheduler, PredictStallOpensWindow)
{
    Cpu cpu{SimConfig{}};
    CpuTestPeer::setPredictStall(cpu, 10);
    // now == 0: cycles 1..9 are inert, the stall expires at 10.
    EXPECT_EQ(cpu.nextEventCycle(kBound), 10u);
    EXPECT_EQ(cpu.inertWindow(kBound), 9u);

    // An expiring (or expired) stall means the predictor acts next cycle.
    CpuTestPeer::setPredictStall(cpu, 1);
    EXPECT_EQ(cpu.inertWindow(kBound), 0u);
    CpuTestPeer::setPredictStall(cpu, 0);
    EXPECT_EQ(cpu.inertWindow(kBound), 0u);
}

TEST(SkipScheduler, RobHeadCompletionIsTheEvent)
{
    Cpu cpu{SimConfig{}};
    CpuTestPeer::blockPredictor(cpu);
    CpuTestPeer::pushRob(cpu, 25);
    CpuTestPeer::pushRob(cpu, 17); // later entries are not events
    EXPECT_EQ(cpu.nextEventCycle(kBound), 25u);
    EXPECT_EQ(cpu.inertWindow(kBound), 24u);

    // An already-due head clamps to now + 1: never a window, never an
    // event in the past.
    Cpu due{SimConfig{}};
    CpuTestPeer::blockPredictor(due);
    CpuTestPeer::pushRob(due, 0);
    EXPECT_EQ(due.nextEventCycle(kBound), 1u);
    EXPECT_EQ(due.inertWindow(kBound), 0u);
}

TEST(SkipScheduler, FtqHeadArrivalIsTheEvent)
{
    Cpu cpu{SimConfig{}};
    CpuTestPeer::blockPredictor(cpu);
    CpuTestPeer::pushFtqGroup(cpu, /*line=*/5, /*ready=*/40,
                              /*access_pending=*/false);
    EXPECT_EQ(cpu.nextEventCycle(kBound), 40u);
    EXPECT_EQ(cpu.inertWindow(kBound), 39u);

    // A head whose line has arrived feeds fetch next cycle: no window.
    Cpu ready{SimConfig{}};
    CpuTestPeer::blockPredictor(ready);
    CpuTestPeer::pushFtqGroup(ready, 5, /*ready=*/1, false);
    EXPECT_EQ(ready.inertWindow(kBound), 0u);

    // A fresh group (its L1I access still pending) fires next cycle.
    Cpu fresh{SimConfig{}};
    CpuTestPeer::blockPredictor(fresh);
    CpuTestPeer::pushFtqGroup(fresh, 5, kCycleNever, true);
    EXPECT_EQ(fresh.inertWindow(kBound), 0u);

    // ... unless the access is blocked on a full MSHR file, where only
    // a fill (none in flight here) can unblock it: the bound holds.
    CpuTestPeer::setL1iAccessBlocked(fresh, true);
    EXPECT_EQ(fresh.inertWindow(kBound), kBound - 1);
}

TEST(SkipScheduler, CacheFillIsTheEvent)
{
    Cpu cpu{SimConfig{}};
    CpuTestPeer::blockPredictor(cpu);
    // A demand miss at cycle 0 puts a fill in flight; its completion is
    // the only event.
    cpu.l1i().demandAccess(/*line=*/123, /*pc=*/123 << 6, /*now=*/0);
    Cycle fill = cpu.l1i().nextFillReady();
    ASSERT_NE(fill, kCycleNever);
    ASSERT_GT(fill, 1u);
    EXPECT_EQ(cpu.nextEventCycle(kBound), fill);
    EXPECT_EQ(cpu.inertWindow(kBound), fill - 1);
}

TEST(SkipScheduler, WindowClampsToBound)
{
    Cpu cpu{SimConfig{}};
    CpuTestPeer::blockPredictor(cpu);
    CpuTestPeer::pushRob(cpu, 500);
    EXPECT_EQ(cpu.nextEventCycle(/*bound=*/100), 100u);
    EXPECT_EQ(cpu.inertWindow(/*bound=*/100), 99u);
}

TEST(SkipScheduler, SkipBulkChargesOneBucket)
{
    // Line-miss: FTQ head still in flight.
    Cpu miss{SimConfig{}};
    CpuTestPeer::blockPredictor(miss);
    CpuTestPeer::pushFtqGroup(miss, 5, /*ready=*/40, false);
    CpuTestPeer::skip(miss, kBound);
    EXPECT_EQ(CpuTestPeer::now(miss), 39u);
    EXPECT_EQ(CpuTestPeer::idle(miss), 39u);
    EXPECT_EQ(CpuTestPeer::lineMiss(miss), 39u);
    EXPECT_EQ(CpuTestPeer::robFull(miss), 0u);
    EXPECT_EQ(CpuTestPeer::emptyMispredict(miss), 0u);
    EXPECT_EQ(CpuTestPeer::emptyStarved(miss), 0u);

    // Redirect recovery: empty FTQ behind an unresolved branch.
    Cpu redirect{SimConfig{}};
    CpuTestPeer::blockPredictor(redirect);
    CpuTestPeer::pushRob(redirect, 25);
    CpuTestPeer::skip(redirect, kBound);
    EXPECT_EQ(CpuTestPeer::now(redirect), 24u);
    EXPECT_EQ(CpuTestPeer::emptyMispredict(redirect), 24u);
    EXPECT_EQ(CpuTestPeer::lineMiss(redirect), 0u);

    // No window -> no accounting movement at all.
    Cpu busy{SimConfig{}};
    CpuTestPeer::skip(busy, kBound);
    EXPECT_EQ(CpuTestPeer::now(busy), 0u);
    EXPECT_EQ(CpuTestPeer::idle(busy), 0u);
}

/** Artifact text of one run (timing excluded) — the full counter,
 *  gauge, histogram and sample content in eip-run/v1 form. */
std::string
artifactOf(const trace::Workload &workload, const harness::RunSpec &spec)
{
    harness::RunResult result = harness::runOne(workload, spec);
    obs::RunManifest manifest =
        harness::makeManifest(workload, spec, result);
    return harness::runArtifactJson(manifest, result,
                                    /*include_timing=*/false);
}

TEST(SkipScheduler, SkipVsNoSkipArtifactsIdentical)
{
    // Warm-up boundary and an interval sampler with a stride that does
    // not divide the budget: if a skip window ever jumped the warm-up
    // edge, a sampler stride, or the end-of-measurement boundary, the
    // cycle counts or sample rows would diverge.
    trace::Workload workload = trace::tinyWorkload();
    for (const char *config : {"none", "entangling-4k"}) {
        harness::RunSpec spec;
        spec.configId = config;
        spec.instructions = 60000;
        spec.warmup = 30000;
        spec.sampleInterval = 7001;
        spec.collectCounters = true;

        harness::RunSpec noskip = spec;
        noskip.eventSkip = false;

        EXPECT_EQ(artifactOf(workload, spec), artifactOf(workload, noskip))
            << "skip changed results under config " << config;
    }
}

} // namespace
} // namespace eip::sim
