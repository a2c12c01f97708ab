/**
 * @file
 * Tests for SMARTS-style sampled simulation (DESIGN.md §3.13): schedule
 * construction and seeded offsets, death tests for degenerate schedules,
 * the Welford/Student-t estimator math, and the module's defining
 * property — a schedule of window=total, period=total degenerates to a
 * run that is bit-identical to the full (unsampled) run, pinned as an
 * empty-allow-list diff of the two eip-run/v1 artifacts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "check/diff.hh"
#include "harness/artifacts.hh"
#include "harness/runner.hh"
#include "obs/json.hh"
#include "sample/estimator.hh"
#include "sample/sampled.hh"
#include "sample/schedule.hh"
#include "trace/workloads.hh"

namespace eip::sample {
namespace {

TEST(SampleSchedule, ModeNamesRoundTrip)
{
    Mode mode = Mode::Periodic;
    EXPECT_TRUE(parseMode("full", &mode));
    EXPECT_EQ(mode, Mode::Full);
    EXPECT_TRUE(parseMode("periodic", &mode));
    EXPECT_EQ(mode, Mode::Periodic);
    EXPECT_FALSE(parseMode("random", &mode));
    EXPECT_FALSE(parseMode("", &mode));
    EXPECT_EQ(modeName(Mode::Full), "full");
    EXPECT_EQ(modeName(Mode::Periodic), "periodic");
}

TEST(SampleSchedule, OffsetIsDeterministicAndWithinSlack)
{
    SampleSpec spec;
    spec.mode = Mode::Periodic;
    spec.window = 1000;
    spec.period = 10000;
    for (uint64_t seed : {0ull, 1ull, 42ull, 0xDEADBEEFull}) {
        spec.seed = seed;
        uint64_t a = scheduleOffset(spec);
        uint64_t b = scheduleOffset(spec);
        EXPECT_EQ(a, b) << "offset must be a pure function of the spec";
        EXPECT_LE(a, spec.period - spec.window);
    }
    // Different seeds should actually move the offset (any fixed pair
    // colliding would be astronomically unlucky for a 9001-wide slack).
    spec.seed = 1;
    uint64_t one = scheduleOffset(spec);
    spec.seed = 2;
    EXPECT_NE(one, scheduleOffset(spec));
}

TEST(SampleSchedule, NoSlackMeansZeroOffsetForEverySeed)
{
    // period == window leaves no room to place the window anywhere but
    // the start — the degenerate-schedule property below depends on it.
    SampleSpec spec;
    spec.mode = Mode::Periodic;
    spec.window = 5000;
    spec.period = 5000;
    for (uint64_t seed : {0ull, 7ull, 123456789ull}) {
        spec.seed = seed;
        EXPECT_EQ(scheduleOffset(spec), 0u);
    }
}

TEST(SampleSchedule, PhasesTileTheBudget)
{
    SampleSpec spec;
    spec.mode = Mode::Periodic;
    spec.window = 1000;
    spec.period = 10000;
    spec.seed = 3;
    const uint64_t budget = 100000;
    auto phases = buildSchedule(spec, budget);
    ASSERT_FALSE(phases.empty());

    uint64_t pos = 0;
    uint64_t detailed = 0;
    for (const Phase &p : phases) {
        // warm == whole gap when spec.warm is 0 (classic SMARTS).
        EXPECT_EQ(p.skip, 0u);
        EXPECT_LE(p.window, spec.window);
        pos += p.skip + p.warm + p.window;
        detailed += p.window;
    }
    EXPECT_LE(pos, budget);
    // Instructions past the last window are never touched; everything
    // before it is covered exactly once.
    EXPECT_GT(pos, budget - spec.period);
    EXPECT_EQ(detailed, phases.size() * spec.window);
}

TEST(SampleSchedule, BoundedWarmingSplitsGapsIntoSkipPlusWarm)
{
    SampleSpec spec;
    spec.mode = Mode::Periodic;
    spec.window = 100;
    spec.period = 10000;
    spec.warm = 300;
    auto phases = buildSchedule(spec, 100000);
    ASSERT_GT(phases.size(), 1u);
    for (size_t i = 0; i < phases.size(); ++i) {
        const Phase &p = phases[i];
        EXPECT_LE(p.warm, spec.warm);
        if (i > 0) {
            // Interior gaps are period - window long: larger than the
            // warm bound, so the rest must be fast-forwarded.
            EXPECT_EQ(p.warm, spec.warm);
            EXPECT_EQ(p.skip, spec.period - spec.window - spec.warm);
        }
    }
}

using SampleScheduleDeathTest = ::testing::Test;

TEST(SampleScheduleDeathTest, ZeroWindowIsFatal)
{
    SampleSpec spec;
    spec.mode = Mode::Periodic;
    spec.window = 0;
    spec.period = 1000;
    EXPECT_DEATH(validateSpec(spec, 100000),
                 "sample window must be positive");
}

TEST(SampleScheduleDeathTest, PeriodShorterThanWindowIsFatal)
{
    SampleSpec spec;
    spec.mode = Mode::Periodic;
    spec.window = 1000;
    spec.period = 999;
    EXPECT_DEATH(validateSpec(spec, 100000),
                 "sample period must be at least the window length");
}

TEST(SampleScheduleDeathTest, ZeroBudgetIsFatal)
{
    SampleSpec spec;
    spec.mode = Mode::Periodic;
    spec.window = 10;
    spec.period = 10;
    EXPECT_DEATH(validateSpec(spec, 0),
                 "instruction budget must be positive");
}

TEST(SampleEstimator, WelfordMatchesClosedForm)
{
    Welford w;
    const double values[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    for (double v : values)
        w.add(v);
    EXPECT_EQ(w.n(), 8u);
    EXPECT_DOUBLE_EQ(w.mean(), 5.0);
    // Sum of squared deviations is 32; sample variance 32/7.
    EXPECT_NEAR(w.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(w.stdError(), std::sqrt(32.0 / 7.0 / 8.0), 1e-12);
}

TEST(SampleEstimator, FewerThanTwoValuesHaveNoDispersion)
{
    Welford w;
    EXPECT_DOUBLE_EQ(w.variance(), 0.0);
    w.add(3.5);
    EXPECT_DOUBLE_EQ(w.mean(), 3.5);
    EXPECT_DOUBLE_EQ(w.variance(), 0.0);
    EXPECT_DOUBLE_EQ(w.stdError(), 0.0);

    MetricSummary one = summarize(w);
    EXPECT_DOUBLE_EQ(one.estimate, 3.5);
    EXPECT_DOUBLE_EQ(one.stdError, 0.0);
    EXPECT_DOUBLE_EQ(one.ci95, 0.0);
}

TEST(SampleEstimator, StudentTCriticalValues)
{
    EXPECT_DOUBLE_EQ(tCritical95(0), 0.0);
    EXPECT_NEAR(tCritical95(1), 12.706, 0.01);
    EXPECT_NEAR(tCritical95(9), 2.262, 0.01);
    EXPECT_NEAR(tCritical95(30), 2.042, 0.01);
    EXPECT_NEAR(tCritical95(1000000), 1.96, 0.001);
    // Monotone non-increasing in the degrees of freedom.
    for (uint64_t df = 2; df <= 40; ++df)
        EXPECT_LE(tCritical95(df), tCritical95(df - 1));
}

TEST(SampleEstimator, SummaryIntervalUsesStudentT)
{
    Welford w;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        w.add(v);
    MetricSummary s = summarize(w);
    EXPECT_DOUBLE_EQ(s.estimate, 2.5);
    EXPECT_NEAR(s.ci95, s.stdError * tCritical95(3), 1e-12);
}

/** Timing-free eip-run/v1 document of @p spec on @p workload. */
std::string
artifactFor(const trace::Workload &workload, const harness::RunSpec &spec)
{
    return harness::runJobArtifact(harness::RunJob{workload, spec}).json;
}

/** Drop @p key from @p object-typed value (no-op when absent). */
void
eraseKey(obs::JsonValue &value, const std::string &key)
{
    auto &members = value.object;
    members.erase(std::remove_if(members.begin(), members.end(),
                                 [&key](const auto &member) {
                                     return member.first == key;
                                 }),
                  members.end());
}

TEST(SampledRun, DegenerateScheduleIsBitIdenticalToFullRun)
{
    // One window covering the whole measured region leaves the sampling
    // controller nothing to skip and nothing to estimate across windows:
    // the instruction-by-instruction simulation must match the full run
    // exactly. Diffed with an EMPTY allow-list — after removing the
    // fields that exist only because sampling was requested (the
    // manifest's schedule echo and the sampling section itself), every
    // remaining field of the two artifacts must be byte-equal.
    //
    // Warm-up is zero on both sides: sampled mode warms functionally by
    // design where full mode warms in detail, so the pipeline state at
    // the measurement boundary differs when warmup > 0 — that gap is
    // bounded by the eipdiff sampled-vs-full tolerance leg, while this
    // test pins the controller itself to exact equivalence.
    trace::Workload w = trace::tinyWorkload();
    harness::RunSpec full;
    full.configId = "entangling-4k";
    full.instructions = 60000;
    full.warmup = 0;

    harness::RunSpec degenerate = full;
    degenerate.sampleMode = "periodic";
    degenerate.sampleWindow = full.instructions;
    degenerate.samplePeriod = full.instructions;

    std::string full_text = artifactFor(w, full);
    std::string sampled_text = artifactFor(w, degenerate);

    auto full_doc = obs::parseJson(full_text);
    auto sampled_doc = obs::parseJson(sampled_text);
    ASSERT_TRUE(full_doc.has_value());
    ASSERT_TRUE(sampled_doc.has_value());

    eraseKey(*sampled_doc, "sampling");
    for (auto &member : sampled_doc->object) {
        if (member.first != "manifest")
            continue;
        for (const char *key : {"sample_mode", "sample_window",
                                "sample_period", "sample_seed",
                                "sample_warm"})
            eraseKey(member.second, key);
    }

    size_t compared = 0;
    std::vector<check::DiffEntry> diff =
        check::diffJson(*full_doc, *sampled_doc, {}, &compared);
    for (const check::DiffEntry &entry : diff)
        ADD_FAILURE() << entry.path << ": " << entry.lhs
                      << " != " << entry.rhs;
    EXPECT_TRUE(diff.empty());
    // The diff must actually have looked at the run: a pair of empty
    // documents would also be "identical".
    EXPECT_GT(compared, 50u);
}

TEST(SampledRun, SummaryAccountsForEveryInstruction)
{
    trace::Workload w = trace::tinyWorkload();
    harness::RunSpec spec;
    spec.configId = "nextline";
    spec.instructions = 80000;
    spec.warmup = 20000;
    spec.sampleMode = "periodic";
    spec.sampleWindow = 2000;
    spec.samplePeriod = 20000;
    spec.sampleWarm = 4000;
    spec.collectCounters = true;

    harness::RunResult r = harness::runOne(w, spec);
    ASSERT_TRUE(r.hasSampling);
    // The live counters report the window aggregate the returned stats
    // do: warming between windows is charged to neither.
    EXPECT_EQ(r.counters.counter("cpu.instructions"), r.stats.instructions);
    EXPECT_EQ(r.counters.counter("cpu.cycles"), r.stats.cycles);
    EXPECT_EQ(r.counters.gauge("cpu.ipc"), r.stats.ipc());
    EXPECT_EQ(r.counters.counter("dram.accesses"), r.stats.dramAccesses);
    EXPECT_EQ(r.counters.counter("l1i.demand_misses"),
              r.stats.l1i.demandMisses);
    const Summary &s = r.sampling;
    EXPECT_EQ(s.windows, 4u);
    // Windows retire at fetch-group granularity, so each may overshoot
    // its nominal length by a few instructions — never undershoot.
    EXPECT_GE(s.windowInstructions, s.windows * spec.sampleWindow);
    EXPECT_LT(s.windowInstructions, s.windows * (spec.sampleWindow + 64));
    EXPECT_EQ(r.stats.instructions, s.windowInstructions);
    // Warming covers the initial warm-up plus the bounded prefix of each
    // gap; skip covers the rest. Together with the windows they never
    // exceed the budget (the tail past the last window is untouched)
    // beyond the per-window retire overshoot.
    EXPECT_GE(s.warmedInstructions, spec.warmup);
    EXPECT_LE(s.warmedInstructions + s.skippedInstructions +
                  s.windowInstructions,
              spec.warmup + spec.instructions + s.windows * 64);
    EXPECT_LE(s.offset, spec.samplePeriod - spec.sampleWindow);
    // Four windows of a steady-state workload: a defined interval.
    EXPECT_GT(s.ipc.estimate, 0.0);
    EXPECT_GE(s.ipc.ci95, s.ipc.stdError); // t(3) > 1
}

TEST(SampledRun, SeedSelectsDifferentRegions)
{
    trace::Workload w = trace::tinyWorkload();
    harness::RunSpec spec;
    spec.configId = "none";
    spec.instructions = 60000;
    spec.warmup = 10000;
    spec.sampleMode = "periodic";
    spec.sampleWindow = 1000;
    spec.samplePeriod = 15000;

    harness::RunResult a = harness::runOne(w, spec);
    harness::RunResult b = harness::runOne(w, spec);
    ASSERT_TRUE(a.hasSampling);
    // Same spec, same regions, same estimate: sampling is deterministic.
    EXPECT_EQ(a.sampling.offset, b.sampling.offset);
    EXPECT_DOUBLE_EQ(a.sampling.ipc.estimate, b.sampling.ipc.estimate);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);

    spec.sampleSeed = 12345;
    harness::RunResult c = harness::runOne(w, spec);
    ASSERT_TRUE(c.hasSampling);
    EXPECT_NE(c.sampling.offset, a.sampling.offset)
        << "a different seed should move the systematic offset";
}

} // namespace
} // namespace eip::sample
