/**
 * @file
 * Request storm against an in-process eipd daemon: the fig06-shaped
 * suite (prefetcher lineup x CVP workloads) replayed three times over
 * the eip-serve/v1 socket protocol — one cold round that simulates
 * every point, then two warm rounds that mix the same hot keys with a
 * few cold extras. Publishes served-QPS and cache hit-rate per round
 * to BENCH_servestorm.json, and gates on the subsystem's two promises:
 * warm rounds are >= 90% cache-served, and every cache-served artifact
 * is bit-identical (empty eipdiff allow-list; artifacts carry no
 * timing fields by construction) both to its cold-simulated twin and
 * to an in-process harness::runJobArtifact reference.
 *
 * The daemon runs small (two workers, queue depth 16) so the storm
 * also exercises backpressure: rejected submits are retried and the
 * retry count is reported alongside the throughput numbers.
 */

#include <cstdint>
#include <map>
#include <thread>

#include <unistd.h>

#include "bench_common.hh"
#include "check/diff.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"

using namespace eip;

namespace {

/** One storm point: a submit request plus its display label. */
struct Point
{
    serve::RunRequest run;
    std::string label;
};

/** The fig06 shape at storm scale: a representative slice of the
 *  Figure 6 lineup (baseline, a simple scheme, two Entangling sizes,
 *  and the two non-prefetcher cache configs) over the CVP suite. */
std::vector<Point>
stormPoints()
{
    const char *configs[] = {"none",          "nextline", "entangling-2k",
                             "entangling-4k", "ideal",    "l1i-64kb"};
    std::vector<Point> points;
    for (const trace::Workload &w : trace::cvpSuite(2)) {
        for (const char *cfg : configs) {
            serve::RunRequest run;
            run.workload = w.name;
            run.prefetcher = cfg;
            run.instructions = 60000;
            run.warmup = 30000;
            points.push_back({run, w.name + "/" + cfg});
        }
    }
    return points;
}

/** Cold extras mixed into warm round @p round: tiny-workload requests
 *  whose instruction budgets no earlier round used, so their keys miss. */
std::vector<Point>
coldExtras(int round)
{
    std::vector<Point> points;
    for (int i = 0; i < 4; ++i) {
        serve::RunRequest run;
        run.workload = "tiny";
        run.instructions = 20000 + 1000 * round + i;
        run.warmup = 10000;
        points.push_back(
            {run, "tiny/extra-r" + std::to_string(round) + "-" +
                      std::to_string(i)});
    }
    return points;
}

struct RoundOutcome
{
    double seconds = 0.0;
    uint64_t cacheServed = 0;
    uint64_t simulated = 0;
    uint64_t retries = 0; ///< backpressure rejections, all retried
    /** label -> exact artifact bytes, fetched after completion. */
    std::map<std::string, std::string> artifacts;

    double
    hitPercent() const
    {
        uint64_t total = cacheServed + simulated;
        return total == 0 ? 0.0
                          : 100.0 * static_cast<double>(cacheServed) /
                                static_cast<double>(total);
    }
};

[[noreturn]] void
die(const std::string &what, const std::string &error)
{
    std::fprintf(stderr, "servestorm: %s: %s\n", what.c_str(),
                 error.c_str());
    std::exit(1);
}

/** Fire every point at the daemon (submit-all then drain) and fetch
 *  the resulting artifacts. Rejected submits back off and retry. */
RoundOutcome
runRound(serve::Client &client, const std::vector<Point> &points)
{
    RoundOutcome outcome;
    auto start = std::chrono::steady_clock::now();

    std::vector<std::pair<uint64_t, const Point *>> jobs;
    jobs.reserve(points.size());
    for (const Point &point : points) {
        serve::SubmitOutcome submit;
        std::string error;
        for (;;) {
            if (!client.submit(point.run, submit, &error))
                die("submit " + point.label, error);
            if (!submit.rejected)
                break;
            ++outcome.retries;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (!submit.accepted)
            die("submit " + point.label, submit.error);
        if (submit.served == "cache")
            ++outcome.cacheServed;
        else
            ++outcome.simulated;
        jobs.emplace_back(submit.job, &point);
    }

    for (const auto &[id, point] : jobs) {
        serve::JobView view;
        std::string error;
        if (!client.waitTerminal(id, view, 120.0, &error))
            die("wait " + point->label, error);
        if (view.state != "done")
            die("job " + point->label, view.error);
        if (!client.fetch(id, view, &error))
            die("fetch " + point->label, error);
        outcome.artifacts[point->label] = view.artifact;
    }

    outcome.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    return outcome;
}

/** The artifact an in-process run (no daemon, no fork) produces for
 *  @p run — the reference the served bytes must match exactly. */
std::string
inProcessReference(const serve::RunRequest &run)
{
    trace::Workload workload;
    if (!harness::findWorkload(run.workload, workload))
        die("reference", "unknown workload " + run.workload);
    harness::RunJob job{workload, serve::toRunSpec(run)};
    return harness::runJobArtifact(job).json;
}

} // namespace

int
main()
{
    bench::banner("servestorm",
                  "eipd request storm: served-QPS and cache hit-rate");

    serve::DaemonOptions options;
    options.socketPath =
        "/tmp/eip_servestorm_" + std::to_string(getpid()) + ".sock";
    options.workers = 2;
    options.queueDepth = 16;
    serve::Daemon daemon(options);
    std::string error;
    if (!daemon.start(&error))
        die("daemon start", error);

    serve::Client client;
    if (!client.connect(options.socketPath, &error))
        die("connect", error);

    const std::vector<Point> storm = stormPoints();
    std::printf("storm: %zu points/round (workers=%u queue=%zu), "
                "1 cold + 2 warm rounds\n",
                storm.size(), options.workers, options.queueDepth);

    std::vector<std::string> round_names;
    std::vector<RoundOutcome> rounds;
    round_names.emplace_back("cold");
    rounds.push_back(runRound(client, storm));
    for (int warm = 1; warm <= 2; ++warm) {
        std::vector<Point> mixed = storm;
        for (Point &extra : coldExtras(warm))
            mixed.push_back(std::move(extra));
        round_names.push_back("warm-" + std::to_string(warm));
        rounds.push_back(runRound(client, mixed));
    }

    const std::vector<std::string> columns = {
        "points",    "seconds", "served_qps",         "cache_served",
        "simulated", "hit_pct", "backpressure_retry",
    };
    std::vector<std::vector<double>> cells;
    for (const RoundOutcome &round : rounds) {
        double points = static_cast<double>(round.cacheServed +
                                            round.simulated);
        cells.push_back({points, round.seconds,
                         round.seconds > 0.0 ? points / round.seconds : 0.0,
                         static_cast<double>(round.cacheServed),
                         static_cast<double>(round.simulated),
                         round.hitPercent(),
                         static_cast<double>(round.retries)});
    }
    harness::printMatrix("Request storm (eip-serve/v1 over AF_UNIX)",
                         round_names, columns, cells);

    // Gate 1: warm rounds are served, not simulated.
    bool ok = true;
    for (size_t r = 1; r < rounds.size(); ++r) {
        if (rounds[r].hitPercent() < 90.0) {
            std::fprintf(stderr,
                         "servestorm: %s hit rate %.1f%% below the 90%% "
                         "gate\n",
                         round_names[r].c_str(), rounds[r].hitPercent());
            ok = false;
        }
    }

    // Gate 2: cache-served bytes are bit-identical to the cold
    // simulation's, and the daemon pipeline (fork, pipe, cache, JSON
    // string round-trip) matches an in-process run exactly. Empty
    // allow-list: artifacts carry no timing fields.
    check::DiffRunner diff;
    const std::vector<std::string> no_allowances;
    for (const auto &[label, artifact] : rounds[1].artifacts) {
        auto cold = rounds[0].artifacts.find(label);
        if (cold == rounds[0].artifacts.end())
            continue; // a warm-round cold extra; no cold twin
        diff.compare("warm-vs-cold " + label, cold->second, artifact,
                     no_allowances);
    }
    for (size_t i = 0; i < storm.size(); i += 8) {
        const Point &point = storm[i];
        diff.compare("daemon-vs-inprocess " + point.label,
                     rounds[0].artifacts.at(point.label),
                     inProcessReference(point.run), no_allowances);
    }
    std::printf("\n%s", diff.report().c_str());
    if (!diff.allClean())
        ok = false;

    std::string stats = daemon.statsJson();
    std::printf("\nstats: %s\n", stats.c_str());

    if (!client.shutdown(&error))
        die("shutdown", error);
    client.close();
    daemon.waitStopRequested();
    daemon.stop();

    if (!ok) {
        std::fprintf(stderr, "servestorm: FAILED\n");
        return 1;
    }
    std::printf("\nservestorm: warm rounds cache-served and "
                "bit-identical (see BENCH_servestorm.json)\n");
    return 0;
}
