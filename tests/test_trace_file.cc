/**
 * @file
 * Tests for the binary trace file format: round-trip fidelity, header
 * integrity, looping replay, and end-to-end simulation from a replayed
 * trace matching the live-generated stream.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <unistd.h>

#include "check/diff.hh"
#include "harness/artifacts.hh"
#include "harness/runner.hh"
#include "obs/manifest.hh"
#include "sim/cpu.hh"
#include "trace/executor.hh"
#include "prefetch/factory.hh"
#include "trace/trace_file.hh"
#include "trace/workloads.hh"
#include "util/hash.hh"

namespace eip::trace {
namespace {

/** Temp-file helper that cleans up after itself. */
class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path = ::testing::TempDir() + "eip_trace_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               ".trc";
    }

    void TearDown() override { std::remove(path.c_str()); }

    std::string path;
};

Instruction
sampleInst(uint64_t i)
{
    Instruction inst;
    inst.pc = 0x400000 + i * 4;
    inst.size = 4;
    inst.branch = static_cast<BranchType>(i % 7);
    inst.taken = i % 3 == 0;
    inst.target = inst.taken ? 0x500000 + i : 0;
    inst.isLoad = i % 5 == 0;
    inst.isStore = i % 11 == 0;
    inst.isFp = i % 13 == 0;
    inst.memAddr = inst.isLoad || inst.isStore ? 0x7000000 + i * 8 : 0;
    return inst;
}

TEST_F(TraceFileTest, RoundTripPreservesEveryField)
{
    {
        TraceWriter writer(path);
        for (uint64_t i = 0; i < 500; ++i)
            writer.append(sampleInst(i));
        writer.close();
        EXPECT_EQ(writer.written(), 500u);
    }
    TraceReader reader(path, /*loop=*/false);
    EXPECT_EQ(reader.size(), 500u);
    Instruction inst;
    for (uint64_t i = 0; i < 500; ++i) {
        ASSERT_TRUE(reader.next(inst));
        Instruction expect = sampleInst(i);
        EXPECT_EQ(inst.pc, expect.pc);
        EXPECT_EQ(inst.size, expect.size);
        EXPECT_EQ(inst.branch, expect.branch);
        EXPECT_EQ(inst.taken, expect.taken);
        EXPECT_EQ(inst.target, expect.target);
        EXPECT_EQ(inst.isLoad, expect.isLoad);
        EXPECT_EQ(inst.isStore, expect.isStore);
        EXPECT_EQ(inst.isFp, expect.isFp);
        EXPECT_EQ(inst.memAddr, expect.memAddr);
    }
    EXPECT_FALSE(reader.next(inst)); // exhausted, no loop
}

TEST_F(TraceFileTest, LoopingReaderWraps)
{
    {
        TraceWriter writer(path);
        for (uint64_t i = 0; i < 10; ++i)
            writer.append(sampleInst(i));
    } // destructor closes
    TraceReader reader(path, /*loop=*/true);
    Instruction inst;
    for (int i = 0; i < 35; ++i)
        ASSERT_TRUE(reader.next(inst));
    // 35 % 10 = 5: the last record read is sample 4.
    EXPECT_EQ(inst.pc, sampleInst(4).pc);
}

TEST_F(TraceFileTest, CaptureFromExecutor)
{
    Workload w = tinyWorkload();
    Program prog = buildProgram(w.program);
    Executor exec(prog, w.exec);
    uint64_t n = captureTrace(path, exec, 20000);
    EXPECT_EQ(n, 20000u);
    TraceReader reader(path, false);
    EXPECT_EQ(reader.size(), 20000u);
}

TEST_F(TraceFileTest, CaptureBytesAreDeterministic)
{
    // Every byte of the file is defined, record padding included: two
    // captures of one run are identical and match the pinned digest.
    auto capture = [&] {
        Workload w = tinyWorkload();
        Program prog = buildProgram(w.program);
        Executor exec(prog, w.exec);
        captureTrace(path, exec, 5000);
        std::ifstream in(path, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    const std::string first = capture();
    const std::string second = capture();
    constexpr size_t kHeader = 24, kRecord = 28;
    ASSERT_EQ(first.size(), kHeader + 5000 * kRecord);
    for (size_t i = 0; i < 5000; ++i)
        ASSERT_EQ(first[kHeader + i * kRecord + kRecord - 1], '\0') << i;
    EXPECT_EQ(first, second);
    EXPECT_EQ(util::fnv1a64(first), 0xa50126a2e8f27c26ULL);
}

TEST_F(TraceFileTest, ReplayMatchesLiveExecution)
{
    // Capture a trace, then simulate (a) live executor and (b) replayer
    // and compare: identical instruction streams must produce identical
    // microarchitectural results.
    Workload w = tinyWorkload();
    Program prog = buildProgram(w.program);
    {
        Executor exec(prog, w.exec);
        captureTrace(path, exec, 120000);
    }

    sim::SimConfig cfg;
    sim::SimStats live, replayed;
    {
        Executor exec(prog, w.exec);
        sim::Cpu cpu(cfg);
        live = cpu.run(exec, 50000, 10000);
    }
    {
        TraceReplayer replay(path);
        sim::Cpu cpu(cfg);
        replayed = cpu.run(replay, 50000, 10000);
    }
    EXPECT_EQ(live.cycles, replayed.cycles);
    EXPECT_EQ(live.l1i.demandMisses, replayed.l1i.demandMisses);
    EXPECT_EQ(live.branchMispredicts, replayed.branchMispredicts);
}

TEST_F(TraceFileTest, ReplayerDrivesPrefetchedSimulation)
{
    Workload w = tinyWorkload();
    w.program.numFunctions = 300;
    Program prog = buildProgram(w.program);
    {
        Executor exec(prog, w.exec);
        captureTrace(path, exec, 150000);
    }
    TraceReplayer replay(path);
    auto pf = prefetch::makePrefetcher("entangling-2k");
    sim::SimConfig cfg;
    sim::Cpu cpu(cfg);
    cpu.attachL1iPrefetcher(pf.get());
    sim::SimStats stats = cpu.run(replay, 100000, 20000);
    EXPECT_GT(stats.l1i.usefulPrefetches, 0u);
}

TEST_F(TraceFileTest, HeaderRejectsGarbage)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    const char junk[] = "this is not a trace file at all.....";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
    EXPECT_EXIT(TraceReader reader(path),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST_F(TraceFileTest, TruncatedTailFailsAtOpen)
{
    {
        TraceWriter writer(path);
        for (uint64_t i = 0; i < 100; ++i)
            writer.append(sampleInst(i));
    }
    std::FILE *f = std::fopen(path.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(::truncate(path.c_str(), size - 10), 0);
    EXPECT_EXIT(TraceReader reader(path), ::testing::ExitedWithCode(1),
                "truncated or partially copied");
}

TEST_F(TraceFileTest, StaleHeaderCountFailsAtOpen)
{
    {
        TraceWriter writer(path);
        for (uint64_t i = 0; i < 100; ++i)
            writer.append(sampleInst(i));
    }
    // Rewrite the header count to fewer records than the file holds —
    // the shape an interrupted capture leaves behind (the writer patches
    // the count only at close).
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    uint8_t forty[8] = {40, 0, 0, 0, 0, 0, 0, 0};
    std::fseek(f, 16, SEEK_SET);
    ASSERT_EQ(std::fwrite(forty, 1, 8, f), 8u);
    std::fclose(f);
    EXPECT_EXIT(TraceReader reader(path), ::testing::ExitedWithCode(1),
                "stale header");
}

TEST_F(TraceFileTest, PostOpenTruncationDiesWithRecordPosition)
{
    // Open-time validation sees a healthy file; shrinking it afterwards
    // must still die with the record position, not serve stale data.
    {
        TraceWriter writer(path);
        for (uint64_t i = 0; i < 20000; ++i)
            writer.append(sampleInst(i));
    }
    EXPECT_EXIT(
        {
            TraceReader reader(path, /*loop=*/false);
            ASSERT_EQ(::truncate(path.c_str(), 24 + 28 * 1000), 0);
            Instruction inst;
            while (reader.next(inst)) {
            }
            ::exit(0); // must not be reached: the loop has to die first
        },
        ::testing::ExitedWithCode(1), "read failed at record");
}

TEST_F(TraceFileTest, ReplayManifestCarriesTraceProvenance)
{
    Workload origin = tinyWorkload();
    {
        Program prog = buildProgram(origin.program);
        Executor exec(prog, origin.exec);
        captureTrace(path, exec, 5000);
    }
    Workload replayed = capturedWorkload(origin, path);
    EXPECT_EQ(replayed.kind, WorkloadKind::EipTrace);
    EXPECT_EQ(replayed.name, origin.name);
    EXPECT_EQ(replayed.traceBytes, 24u + 28u * 5000u);
    EXPECT_EQ(replayed.traceDigest.size(), 16u);

    harness::RunSpec spec;
    obs::RunManifest m =
        harness::makeManifest(replayed, spec, harness::RunResult{});
    EXPECT_EQ(m.traceKind, "eip-trace");
    EXPECT_EQ(m.traceBytes, replayed.traceBytes);
    EXPECT_EQ(m.traceDigest, replayed.traceDigest);

    // Identity is the content digest, not the path: different bytes at
    // the same path must change the digest.
    {
        TraceWriter writer(path);
        for (uint64_t i = 0; i < 5000; ++i)
            writer.append(sampleInst(i + 1));
    }
    Workload other = capturedWorkload(origin, path);
    EXPECT_NE(other.traceDigest, replayed.traceDigest);
}

TEST_F(TraceFileTest, CaptureReplayArtifactBitIdentity)
{
    // The capture→replay contract: replaying a captured trace through
    // the full harness produces a byte-identical result artifact — no
    // allow-list, every field compared.
    Workload origin = tinyWorkload();
    harness::RunSpec spec;
    spec.configId = "entangling-2k";
    spec.instructions = 30000;
    spec.warmup = 10000;
    spec.collectCounters = true;
    {
        Program prog = buildProgram(origin.program);
        Executor exec(prog, origin.exec);
        // Slack past the measured window: the front end runs ahead of
        // retirement, so the capture must outlast warmup + instructions.
        captureTrace(path, exec, spec.warmup + spec.instructions + 65536);
    }
    Workload replayed = capturedWorkload(origin, path);

    harness::RunResult direct = harness::runOne(origin, spec);
    harness::RunResult replay = harness::runOne(replayed, spec);

    // Render both under the origin workload's manifest (timing off) so
    // provenance is pinned equal by construction and the diff covers
    // every result byte.
    obs::RunManifest dm = harness::makeManifest(origin, spec, direct);
    obs::RunManifest rm = harness::makeManifest(origin, spec, replay);
    check::DiffRunner diff;
    const bool clean = diff.compare(
        "capture vs replay",
        harness::runArtifactJson(dm, direct, /*include_timing=*/false),
        harness::runArtifactJson(rm, replay, /*include_timing=*/false),
        /*allow=*/{});
    EXPECT_TRUE(clean) << diff.report();
}

} // namespace
} // namespace eip::trace
