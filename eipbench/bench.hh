/**
 * @file
 * Shared pieces of the repository benchmark: the workload plans, the
 * per-run report, timing helpers, and the stats digest used by the
 * correctness checks. eipbench.cc runs the end-to-end passes;
 * layers.cc holds the traced run and its per-layer metrics.
 */

#ifndef EIPBENCH_BENCH_HH
#define EIPBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "obs/registry.hh"
#include "sim/stats.hh"

namespace eipbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Type-7 percentile of @p values, @p q in [0, 1]. */
double percentile(std::vector<double> values, double q);

/** Operation accounting: every run or request is one attempted
 *  operation, and an operation whose check fails is one failure. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; ///< first few diagnostics

    void
    fail(const std::string &why)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

/** Named metrics in report order. */
struct Metrics
{
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
        std::string note; ///< sample count or context, human output only
    };
    std::vector<Entry> entries;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries.push_back({name, value, unit, ""});
    }
};

/** FNV-1a over every field of statsDump(): the pinned identity of a
 *  simulation's results. */
uint64_t statsDigest(const eip::sim::SimStats &stats);

/** Empty when @p a and @p b agree field for field, else the first
 *  differing field. */
std::string statsDifference(const eip::sim::SimStats &a,
                            const eip::sim::SimStats &b);

/** A counter of @p dump, 0 when the run did not register it. */
double counterValue(const eip::obs::CounterDump &dump, const char *name);

/** Worker threads and serial copies: at most nproc, at most 4. */
unsigned hostParallelism();

/** Daemon workers and closed-loop clients: one fewer than
 *  hostParallelism() (at least one), so the forked simulations leave a
 *  core to the daemon's connection threads and the polling clients. */
unsigned serveParallelism();

/** Covered simulated instructions of one run: the sampled count is
 *  warmed + skipped + detailed, as in micro_simspeed. */
double coveredInstructions(const eip::harness::RunSpec &spec,
                           const eip::harness::RunResult &result);

/** One untraced pass over a job list. */
struct ReferencePass
{
    std::vector<eip::harness::RunResult> results;
    double wallS = 0.0;
};

/** Runs @p jobs through harness::runBatch on @p threads workers (1 is
 *  the serial runOne loop), timing the whole pass. */
ReferencePass runPass(const std::vector<eip::harness::RunJob> &jobs,
                      unsigned threads);

/**
 * Traced run of a simulation workload (full-detail, sampled-smarts,
 * fig6-suite): alternates untraced passes through the public run entry
 * points with traced rebuilds of the same jobs for @p seconds, checks
 * the traced statistics against the untraced ones field for field, and
 * fills @p layers with every per-layer metric.
 */
void tracedSimulation(const std::vector<eip::harness::RunJob> &jobs,
                      unsigned threads, double seconds, Tally &tally,
                      std::map<std::string, double> &layers);

} // namespace eipbench

#endif // EIPBENCH_BENCH_HH
