/**
 * @file
 * The repository benchmark. One binary runs one named workload for a
 * fixed number of seconds, checks that every result is correct, and
 * prints the end-to-end metrics (untraced) or the per-layer metrics
 * (traced) as the last line of its output:
 *
 *   eipbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Workloads (README.md says why each exists):
 *   full-detail     entangling-4k, full detail, srv and int seeds, serial
 *   sampled-smarts  the same runs under micro_simspeed's SMARTS schedule
 *   fig6-suite      the Fig. 6 lineup x CVP seeds through runBatch
 *   serve-mixed     an in-process eipd with closed-loop clients
 *
 * `eipbench --pin` recomputes the pinned digests and references
 * (pins.hh) the correctness checks compare against.
 *
 * Everything goes through public entry points and is timed from
 * outside; nothing in src/ is instrumented for this benchmark.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <thread>

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hh"
#include "exec/program_cache.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "pins.hh"
#include "prefetch/factory.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "trace/workloads.hh"
#include "util/hash.hh"

namespace eipbench {

using namespace eip;

namespace {

/** Every SimStats field as registered for the run artifacts. */
obs::CounterDump
statsDump(const sim::SimStats &stats)
{
    obs::CounterRegistry registry;
    sim::registerSimStats(registry, stats);
    return registry.dump();
}

} // namespace

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

uint64_t
statsDigest(const sim::SimStats &stats)
{
    obs::CounterDump dump = statsDump(stats);
    std::string bytes;
    for (const auto &[name, value] : dump.counters)
        bytes += name + "=" + std::to_string(value) + ";";
    for (const auto &[name, h] : dump.histograms) {
        bytes += name + ":";
        for (uint64_t b : h.buckets)
            bytes += std::to_string(b) + ",";
        bytes += std::to_string(h.overflow) + ";";
    }
    return util::fnv1a64(bytes);
}

std::string
statsDifference(const sim::SimStats &a, const sim::SimStats &b)
{
    obs::CounterDump da = statsDump(a);
    obs::CounterDump db = statsDump(b);
    for (size_t i = 0; i < da.counters.size(); ++i)
        if (da.counters[i] != db.counters[i])
            return da.counters[i].first;
    for (size_t i = 0; i < da.gauges.size(); ++i) {
        double x = da.gauges[i].second;
        double y = db.gauges[i].second;
        if (std::memcmp(&x, &y, sizeof x) != 0)
            return da.gauges[i].first;
    }
    for (size_t i = 0; i < da.histograms.size(); ++i)
        if (da.histograms[i].second.buckets !=
                db.histograms[i].second.buckets ||
            da.histograms[i].second.overflow !=
                db.histograms[i].second.overflow)
            return da.histograms[i].first;
    return "";
}

double
counterValue(const obs::CounterDump &dump, const char *name)
{
    std::optional<uint64_t> v = dump.counter(name);
    return v ? static_cast<double>(*v) : 0.0;
}

unsigned
hostParallelism()
{
    unsigned n = std::thread::hardware_concurrency();
    return std::clamp(n, 1u, 4u);
}

unsigned
serveParallelism()
{
    return std::max(1u, hostParallelism() - 1);
}

double
coveredInstructions(const harness::RunSpec &spec,
                    const harness::RunResult &result)
{
    if (result.hasSampling)
        return static_cast<double>(result.sampling.warmedInstructions +
                                   result.sampling.skippedInstructions +
                                   result.sampling.windowInstructions);
    return static_cast<double>(spec.warmup + spec.instructions);
}

namespace {

// ---------------------------------------------------------------------
// Workload plans. The seed picks one of pins::kClasses input classes.
// Every class covers all catalogue seeds of the chosen categories,
// because one catalogue seed's Ent-4K speedup differs from another's by
// up to a sixth, more than any run-to-run bound can carry. Within them
// the class changes the input without changing the amount of work.

const char *const kSrvInt[] = {"srv-1", "srv-2", "srv-3",
                               "int-1", "int-2", "int-3"};

trace::Workload
catalogueWorkload(const std::string &name)
{
    trace::Workload w;
    if (!harness::findWorkload(name, w)) {
        std::fprintf(stderr, "eipbench: no catalogue workload %s\n",
                     name.c_str());
        std::exit(2);
    }
    return w;
}

/** Input class @p cls of a catalogue workload: the same program walked
 *  with another executor seed, so branch outcomes and data addresses
 *  differ. Class 0 is the catalogue workload itself. */
trace::Workload
inputVariant(trace::Workload w, unsigned cls)
{
    w.exec.seed ^= cls * 0x9E3779B97F4A7C15ull;
    return w;
}

/** The CVP-like suite's qualified seeds (the catalogue's tiny smoke
 *  workload is category "int" too, so match on the seed suffix). */
std::vector<trace::Workload>
cvpWorkloads()
{
    std::vector<trace::Workload> out;
    for (const trace::Workload &w : harness::defaultCatalogue())
        for (const char *cat : {"crypto-", "int-", "fp-", "srv-"})
            if (w.name.rfind(cat, 0) == 0)
                out.push_back(w);
    return out;
}

std::vector<harness::RunJob>
fullDetailJobs(unsigned cls)
{
    std::vector<harness::RunJob> jobs;
    for (const char *name : kSrvInt) {
        harness::RunSpec spec;
        spec.configId = "entangling-4k";
        spec.instructions = 1000000;
        spec.warmup = 300000;
        jobs.push_back({inputVariant(catalogueWorkload(name), cls), spec});
    }
    return jobs;
}

/** micro_simspeed's schedule: 8 windows, window = period/80,
 *  warm = 4 x window. The sampling seed stays 0: another offset would
 *  change how much of the budget the schedule covers, and with it the
 *  work per run. */
harness::RunSpec
sampledSpec()
{
    harness::RunSpec spec;
    spec.configId = "entangling-4k";
    spec.instructions = 16000000;
    spec.warmup = 500000;
    spec.sampleMode = "periodic";
    spec.samplePeriod = spec.instructions / 8;
    spec.sampleWindow = spec.samplePeriod / 80;
    spec.sampleWarm = 4 * spec.sampleWindow;
    return spec;
}

std::vector<harness::RunJob>
sampledJobs(unsigned cls)
{
    std::vector<harness::RunJob> jobs;
    for (const char *name : kSrvInt)
        jobs.push_back(
            {inputVariant(catalogueWorkload(name), cls), sampledSpec()});
    return jobs;
}

/** The full-detail run at the sampled budget: what the sampled IPC
 *  estimates. */
harness::RunSpec
sampledReferenceSpec()
{
    harness::RunSpec spec = sampledSpec();
    spec.sampleMode = "full";
    spec.samplePeriod = spec.sampleWindow = spec.sampleWarm = 0;
    return spec;
}

std::vector<std::string>
fig6Configs()
{
    std::vector<std::string> configs = {"none"};
    for (const std::string &id : prefetch::figure6Lineup())
        configs.push_back(id);
    for (const char *id : {"l1i-64kb", "l1i-96kb", "ideal"})
        configs.emplace_back(id);
    return configs;
}

std::vector<harness::RunJob>
fig6Jobs(unsigned cls)
{
    std::vector<harness::RunJob> jobs;
    for (const trace::Workload &w : cvpWorkloads()) {
        for (const std::string &id : fig6Configs()) {
            harness::RunSpec spec;
            spec.configId = id;
            spec.instructions = 60000;
            spec.warmup = 300000;
            jobs.push_back({inputVariant(w, cls), spec});
        }
    }
    return jobs;
}

/** Digest of every run of each workload, in job order. */
std::map<std::string, uint64_t>
workloadDigests(const std::vector<harness::RunJob> &jobs,
                const std::vector<harness::RunResult> &results)
{
    std::map<std::string, uint64_t> digests;
    for (size_t i = 0; i < jobs.size(); ++i) {
        uint64_t &d = digests[jobs[i].workload.name];
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(
                          statsDigest(results[i].stats)));
        d = util::fnv1a64(buf, d == 0 ? util::kFnvOffsetBasis : d);
    }
    return digests;
}

uint64_t
pinnedDigest(const pins::Entry *table, size_t size, unsigned cls,
             const std::string &workload)
{
    for (size_t i = 0; i < size; ++i)
        if (table[i].cls == cls && workload == table[i].workload)
            return table[i].digest;
    return 0;
}

/** Every run of a workload whose digest differs from the pin fails. */
void
checkDigests(const std::vector<harness::RunJob> &jobs,
             const std::vector<harness::RunResult> &results,
             const pins::Entry *table, size_t size, unsigned cls,
             Tally &tally)
{
    std::map<std::string, uint64_t> digests = workloadDigests(jobs, results);
    for (const harness::RunJob &job : jobs) {
        ++tally.attempted;
        uint64_t want = pinnedDigest(table, size, cls, job.workload.name);
        if (digests[job.workload.name] != want)
            tally.fail("statistics of " + job.workload.name + "/" +
                       job.spec.configId +
                       " differ from the digest pinned for class " +
                       std::to_string(cls));
    }
}

// ---------------------------------------------------------------------
// Set-up: catalogue qualification, program builds, daemon start.

struct SetupTimes
{
    double total = 0.0;
    double catalogue = 0.0;
    double build = 0.0;
};

std::string gScratch = ".";
std::atomic<unsigned> gSocketCounter{0};

std::string
socketPath()
{
    return gScratch + "/eipbench-" + std::to_string(::getpid()) + "-" +
           std::to_string(gSocketCounter++) + ".sock";
}

std::vector<trace::ProgramConfig>
distinctPrograms(const std::vector<trace::Workload> &workloads)
{
    std::vector<trace::ProgramConfig> programs;
    std::set<std::string> seen;
    for (const trace::Workload &w : workloads)
        if (seen.insert(w.name).second)
            programs.push_back(w.program);
    return programs;
}

/** One repetition of the set-up work, with fresh state: a qualified
 *  catalogue, a private program cache, and (for serve) a daemon that
 *  starts and accepts a connection. */
SetupTimes
setupOnce(const std::vector<trace::ProgramConfig> &programs, bool daemon)
{
    SetupTimes t;
    auto start = Clock::now();
    std::vector<trace::Workload> catalogue = trace::cvpSuite(3);
    for (trace::Workload &w : trace::cloudSuite())
        catalogue.push_back(std::move(w));
    catalogue.push_back(trace::tinyWorkload());
    t.catalogue = secondsSince(start);

    auto build_start = Clock::now();
    exec::ProgramCache cache;
    for (const trace::ProgramConfig &cfg : programs)
        cache.get(cfg);
    t.build = secondsSince(build_start);

    if (daemon) {
        serve::DaemonOptions options;
        options.socketPath = socketPath();
        options.workers = serveParallelism();
        serve::Daemon d(options);
        std::string error;
        serve::Client client;
        if (!d.start(&error) ||
            !client.connect(options.socketPath, &error)) {
            std::fprintf(stderr, "eipbench: daemon start: %s\n",
                         error.c_str());
            std::exit(1);
        }
        client.close();
        d.stop();
    }
    t.total = secondsSince(start);
    return t;
}

/** Median of nine set-up repetitions; the process-wide catalogue and
 *  program cache are populated first, so the timed passes never pay
 *  for them. */
SetupTimes
setup(const std::vector<trace::Workload> &workloads, bool daemon)
{
    harness::defaultCatalogue();
    std::vector<trace::ProgramConfig> programs = distinctPrograms(workloads);
    for (const trace::ProgramConfig &cfg : programs)
        exec::ProgramCache::global().get(cfg);
    std::vector<double> total, catalogue, build;
    for (int rep = 0; rep < 9; ++rep) {
        SetupTimes t = setupOnce(programs, daemon);
        total.push_back(t.total);
        catalogue.push_back(t.catalogue);
        build.push_back(t.build);
    }
    return {median(total), median(catalogue), median(build)};
}

// ---------------------------------------------------------------------
// Simulation workloads.

struct SimPasses
{
    std::vector<double> walls;
    std::vector<double> mips;
    std::vector<harness::RunResult> last;
};

/**
 * Passes until @p seconds have passed. Each pass runs @p replicas
 * copies of the job list at once, each on @p threads workers, and
 * reports the median copy: on a shared host the median over one serial
 * stream per core drifted less between runs than a lone stream did
 * (README.md has the numbers).
 */
SimPasses
runSimPasses(const std::vector<harness::RunJob> &jobs, unsigned threads,
             unsigned replicas, double seconds, const pins::Entry *table,
             size_t size, unsigned cls, Tally &tally)
{
    SimPasses out;
    auto start = Clock::now();
    do {
        std::vector<ReferencePass> copies(replicas);
        std::vector<std::thread> workers;
        for (unsigned r = 0; r < replicas; ++r)
            workers.emplace_back(
                [&, r] { copies[r] = runPass(jobs, threads); });
        for (std::thread &w : workers)
            w.join();
        std::vector<double> walls, mips;
        for (ReferencePass &copy : copies) {
            checkDigests(jobs, copy.results, table, size, cls, tally);
            double run_covered = 0.0;
            for (size_t i = 0; i < jobs.size(); ++i)
                run_covered +=
                    coveredInstructions(jobs[i].spec, copy.results[i]);
            walls.push_back(copy.wallS);
            mips.push_back(run_covered / copy.wallS / 1e6);
        }
        out.walls.push_back(median(walls));
        out.mips.push_back(median(mips));
        out.last = std::move(copies.front().results);
    } while (secondsSince(start) < seconds);
    return out;
}

/** Ent-4K geomean IPC over no-prefetch, in percent. */
double
ent4kSpeedupPct(const std::vector<harness::RunJob> &jobs,
                const std::vector<harness::RunResult> &results)
{
    std::vector<harness::RunResult> ent, none;
    for (size_t i = 0; i < jobs.size(); ++i) {
        if (jobs[i].spec.configId == "entangling-4k")
            ent.push_back(results[i]);
        else if (jobs[i].spec.configId == "none")
            none.push_back(results[i]);
    }
    return 100.0 * (harness::geomeanSpeedup(ent, none) - 1.0);
}

// ---------------------------------------------------------------------
// serve-mixed: closed-loop clients against an in-process eipd.

/** Cold keys per pass: 12 CVP workloads x four fig6 configurations. */
const char *const kServeConfigs[] = {"none", "nextline", "entangling-4k",
                                     "mana-4k"};
constexpr int kWarmRepeats = 8;
constexpr int kColdExtras = 4;
constexpr int kMaxRejectRetries = 2000;
constexpr double kRequestTimeoutS = 60.0;

struct ServeRequest
{
    serve::RunRequest run;
    std::string label;
};

struct Reply
{
    bool ok = false;
    bool cache = false;
    double latencyMs = 0.0;
    std::vector<double> submitMs; ///< every submit round trip
    double fetchMs = 0.0;
    uint64_t retries = 0;
    std::string artifact;
    std::string error;
};

/** One request, timed from its first submit until its artifact is
 *  fetched. Status is polled here (not Client::waitTerminal, whose fixed
 *  2 ms sleep would quantise cold latency) with a backoff that starts at
 *  20 us and stops growing at 250 us. */
Reply
issue(serve::Client &client, const serve::RunRequest &run)
{
    Reply reply;
    auto start = Clock::now();
    serve::SubmitOutcome submit;
    for (;;) {
        auto t0 = Clock::now();
        if (!client.submit(run, submit, &reply.error))
            return reply;
        reply.submitMs.push_back(secondsSince(t0) * 1000.0);
        if (!submit.rejected)
            break;
        if (++reply.retries > kMaxRejectRetries) {
            reply.error = "rejected after retries";
            return reply;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!submit.accepted) {
        reply.error = "not accepted: " + submit.error;
        return reply;
    }
    reply.cache = submit.served == "cache";
    serve::JobView view;
    view.state = submit.state;
    auto backoff = std::chrono::microseconds(20);
    while (view.state != "done") {
        if (view.state == "failed") {
            reply.error = "job failed: " + view.error;
            return reply;
        }
        if (secondsSince(start) > kRequestTimeoutS) {
            reply.error = "timed out";
            return reply;
        }
        std::this_thread::sleep_for(backoff);
        backoff = std::min(backoff * 2, std::chrono::microseconds(250));
        if (!client.status(submit.job, view, &reply.error))
            return reply;
    }
    auto f0 = Clock::now();
    if (!client.fetch(submit.job, view, &reply.error))
        return reply;
    reply.fetchMs = secondsSince(f0) * 1000.0;
    reply.artifact = std::move(view.artifact);
    reply.latencyMs = secondsSince(start) * 1000.0;
    reply.ok = !reply.artifact.empty();
    if (!reply.ok)
        reply.error = "empty artifact";
    return reply;
}

/** Closed loop: each client sends its next request only after the
 *  previous one completed. */
std::vector<Reply>
runPhase(std::vector<std::unique_ptr<serve::Client>> &clients,
         const std::vector<ServeRequest> &list)
{
    std::vector<Reply> replies(list.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (std::unique_ptr<serve::Client> &client : clients) {
        threads.emplace_back([&] {
            for (size_t i = next++; i < list.size(); i = next++)
                replies[i] = issue(*client, list[i].run);
        });
    }
    for (std::thread &t : threads)
        t.join();
    return replies;
}

struct ServePlan
{
    std::vector<ServeRequest> cold;
    std::vector<ServeRequest> warm;
};

/** Pass @p pass: cold keys no earlier pass used (the measured budget
 *  moves by one instruction per pass), then those keys repeated in a
 *  seeded order with a few cold extras mixed in. Requests name
 *  catalogue workloads, so the input class moves the boundary between
 *  warm-up and measurement instead, keeping the work per request. */
ServePlan
servePlan(unsigned cls, uint64_t seed, unsigned pass)
{
    ServePlan plan;
    for (const trace::Workload &w : cvpWorkloads()) {
        for (const char *cfg : kServeConfigs) {
            ServeRequest r;
            r.run.workload = w.name;
            r.run.prefetcher = cfg;
            r.run.instructions = 40000 + 10000 * cls + pass;
            r.run.warmup = 200000 - 10000 * cls;
            r.label = w.name + "/" + cfg;
            plan.cold.push_back(r);
        }
    }
    for (int rep = 0; rep < kWarmRepeats; ++rep)
        plan.warm.insert(plan.warm.end(), plan.cold.begin(), plan.cold.end());
    std::mt19937_64 rng(seed * 1000003 + pass);
    std::shuffle(plan.warm.begin(), plan.warm.end(), rng);
    for (int i = 0; i < kColdExtras; ++i) {
        ServeRequest r;
        r.run.workload = "tiny";
        r.run.instructions = 20000 + kColdExtras * pass + i;
        r.run.warmup = 10000;
        r.label = "tiny/extra-" + std::to_string(i);
        size_t at = (i + 1) * plan.warm.size() / (kColdExtras + 1);
        plan.warm.insert(plan.warm.begin() + static_cast<long>(at), r);
    }
    return plan;
}

struct ServePass
{
    double wallS = 0.0;
    double warmWallS = 0.0;
    double simulatedInsts = 0.0;
    uint64_t warmCount = 0;
    uint64_t retries = 0;
    std::vector<double> coldMs, warmMs, submitMs, fetchMs;
    double parseS = 0.0;
    double coldBytes = 0.0;
    /** cold-phase label -> artifact bytes */
    std::map<std::string, std::string> coldArtifacts;
};

ServePass
servePass(std::vector<std::unique_ptr<serve::Client>> &clients,
          const ServePlan &plan, Tally &tally)
{
    ServePass out;
    auto start = Clock::now();
    std::vector<Reply> cold = runPhase(clients, plan.cold);
    auto warm_start = Clock::now();
    std::vector<Reply> warm = runPhase(clients, plan.warm);
    out.warmWallS = secondsSince(warm_start);
    out.wallS = secondsSince(start);
    out.warmCount = plan.warm.size();

    auto account = [&](const ServeRequest &req, const Reply &reply) {
        ++tally.attempted;
        out.retries += reply.retries;
        if (!reply.ok) {
            tally.fail(req.label + ": " + reply.error);
            return false;
        }
        (reply.cache ? out.warmMs : out.coldMs).push_back(reply.latencyMs);
        out.submitMs.insert(out.submitMs.end(), reply.submitMs.begin(),
                            reply.submitMs.end());
        out.fetchMs.push_back(reply.fetchMs);
        if (!reply.cache)
            out.simulatedInsts +=
                static_cast<double>(req.run.warmup + req.run.instructions);
        auto t0 = Clock::now();
        bool parsed = obs::parseJson(reply.artifact).has_value();
        out.parseS += secondsSince(t0);
        if (!parsed) {
            tally.fail(req.label + ": artifact does not parse");
            return false;
        }
        return true;
    };
    for (size_t i = 0; i < cold.size(); ++i) {
        if (account(plan.cold[i], cold[i])) {
            out.coldArtifacts[plan.cold[i].label] = cold[i].artifact;
            out.coldBytes += static_cast<double>(cold[i].artifact.size());
        }
    }
    for (size_t i = 0; i < warm.size(); ++i) {
        if (!account(plan.warm[i], warm[i]))
            continue;
        auto twin = out.coldArtifacts.find(plan.warm[i].label);
        if (twin != out.coldArtifacts.end() &&
            twin->second != warm[i].artifact)
            tally.fail(plan.warm[i].label +
                       ": warm artifact differs from its cold twin");
    }
    return out;
}

/**
 * A daemon for the benchmark with its closed-loop clients: one worker
 * per client. The clients connect once and keep their connections for
 * every pass, as long-lived clients of a job server do; eipd keeps a
 * finished connection's thread until it stops, so reconnecting in
 * every phase made each pass slower than the one before.
 */
struct BenchDaemon
{
    serve::DaemonOptions options;
    std::unique_ptr<serve::Daemon> daemon;
    std::vector<std::unique_ptr<serve::Client>> clients;

    BenchDaemon(unsigned workers, size_t span_limit)
    {
        options.socketPath = socketPath();
        options.workers = workers;
        options.queueDepth = 64;
        options.spanLimit = span_limit;
        daemon = std::make_unique<serve::Daemon>(options);
        std::string error;
        if (!daemon->start(&error)) {
            std::fprintf(stderr, "eipbench: daemon start: %s\n",
                         error.c_str());
            std::exit(1);
        }
        for (unsigned c = 0; c < workers; ++c) {
            clients.push_back(std::make_unique<serve::Client>());
            if (!clients.back()->connect(options.socketPath, &error)) {
                std::fprintf(stderr, "eipbench: client connect: %s\n",
                             error.c_str());
                std::exit(1);
            }
        }
    }

    ~BenchDaemon()
    {
        clients.clear();
        daemon->stop();
    }

    BenchDaemon(const BenchDaemon &) = delete;
    BenchDaemon &operator=(const BenchDaemon &) = delete;
};

/** Durations (ms) of every span named @p name in a serve trace. */
std::vector<double>
spanDurationsMs(const std::string &trace_json, const std::string &name)
{
    std::vector<double> out;
    std::optional<obs::JsonValue> doc = obs::parseJson(trace_json);
    if (!doc)
        return out;
    const obs::JsonValue *events = doc->find("traceEvents");
    if (events == nullptr)
        return out;
    for (const obs::JsonValue &e : events->array) {
        const obs::JsonValue *n = e.find("name");
        const obs::JsonValue *dur = e.find("dur");
        if (n != nullptr && dur != nullptr && n->string == name)
            out.push_back(dur->number / 1000.0);
    }
    return out;
}

// ---------------------------------------------------------------------
// Result reporting.

double
peakRssMb()
{
    struct rusage self = {}, children = {};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000, nullptr);
    if (max_leaf >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        std::string model(reinterpret_cast<const char *>(regs), 48);
        model.erase(model.find_last_not_of(std::string(" \0", 2)) + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
    }
#endif
    return "unknown";
}

/** Host fingerprint, seed and build provenance, printed with every
 *  result so numbers from different hosts or seeds are never compared
 *  by accident. */
std::string
metaJson(const std::string &workload, uint64_t seed, unsigned cls,
         double seconds, bool traced)
{
    obs::JsonWriter json;
    json.beginObject();
    json.kv("workload", workload);
    json.kv("seed", seed);
    json.kv("input_class", cls);
    json.kv("seconds", seconds);
    json.kv("traced", traced);
    json.kv("cpu_model", cpuModel());
    json.kv("nproc", std::thread::hardware_concurrency());
    json.kv("parallelism", hostParallelism());
    json.kv("compiler", std::string("gcc-compatible ") + __VERSION__);
    json.kv("build_type", EIPBENCH_BUILD_TYPE);
    json.kv("git_describe", obs::buildGitDescribe());
    json.endObject();
    return json.str();
}

/** Per-layer metrics in report order, with units. A layer a workload
 *  does not exercise reports 0 (README.md lists which). */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"trace.catalogue_s", "s"},
    {"trace.build_program_s", "s"},
    {"trace.next_calls", "count"},
    {"trace.skip_insts", "count"},
    {"trace.drain_s", "s"},
    {"trace.share", "ratio"},
    {"exec.jobs", "count"},
    {"exec.program_cache_builds", "count"},
    {"exec.program_cache_hits", "count"},
    {"exec.job_busy_s", "s"},
    {"exec.job_wait_p50_ms", "ms"},
    {"exec.parallel_efficiency", "ratio"},
    {"sim.warmup_s", "s"},
    {"sim.measure_s", "s"},
    {"sim.fill_drain_s", "s"},
    {"sim.self_s", "s"},
    {"sim.host_ns_per_cycle", "ns"},
    {"sim.host_ns_per_inst", "ns"},
    {"sim.cycles", "count"},
    {"sim.fetch_idle_cycles", "count"},
    {"sim.stall_line_miss", "count"},
    {"sim.stall_ftq_empty_mispredict", "count"},
    {"sim.stall_ftq_empty_starved", "count"},
    {"sim.stall_rob_full", "count"},
    {"sim.l1i.demand_misses", "count"},
    {"sim.l2.misses", "count"},
    {"sim.llc.misses", "count"},
    {"sim.dram_accesses", "count"},
    {"sample.warming_s", "s"},
    {"sample.fast_forward_s", "s"},
    {"sample.window_s", "s"},
    {"sample.windows", "count"},
    {"sample.covered_insts", "count"},
    {"sample.ipc_ci_halfwidth", "ipc"},
    {"prefetch.operate_calls", "count"},
    {"prefetch.operate_s", "s"},
    {"prefetch.fill_calls", "count"},
    {"prefetch.fill_s", "s"},
    {"prefetch.issued_calls", "count"},
    {"prefetch.issued_s", "s"},
    {"prefetch.branch_calls", "count"},
    {"prefetch.branch_s", "s"},
    {"prefetch.cycle_calls", "count"},
    {"prefetch.cycle_s", "s"},
    {"prefetch.accuracy", "ratio"},
    {"prefetch.coverage", "ratio"},
    {"prefetch.late_share", "ratio"},
    {"core.table_hits", "count"},
    {"core.table_misses", "count"},
    {"core.pairs_created", "count"},
    {"core.merges", "count"},
    {"core.table.evictions", "count"},
    {"core.table.relocations", "count"},
    {"obs.artifact_s", "s"},
    {"obs.artifact_bytes", "bytes"},
    {"obs.parse_s", "s"},
    {"serve.submit_rtt_ms", "ms"},
    {"serve.fetch_rtt_ms", "ms"},
    {"serve.queue_wait_ms", "ms"},
    {"serve.worker_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.rejected", "count"},
    {"serve.failed", "count"},
    {"serve.worker_crashes", "count"},
    {"traced_overhead_pct", "%"},
};

void
printResult(const Tally &tally, const Metrics &metrics,
            const std::vector<Metrics::Entry> &extras)
{
    auto print = [](const Metrics::Entry &e) {
        std::printf("metric %-32s %.6g %s%s%s\n", e.name.c_str(), e.value,
                    e.unit.c_str(), e.note.empty() ? "" : "  ",
                    e.note.c_str());
    };
    for (const Metrics::Entry &e : metrics.entries)
        print(e);
    for (const Metrics::Entry &e : extras)
        print(e);
    for (const std::string &f : tally.failures)
        std::printf("check failed: %s\n", f.c_str());

    obs::JsonWriter json;
    json.beginObject();
    json.kv("correct", tally.failed == 0);
    json.kv("attempted", tally.attempted);
    json.kv("failed", tally.failed);
    json.key("metrics").beginObject();
    for (const Metrics::Entry &e : metrics.entries) {
        json.key(e.name).beginObject();
        json.kv("value", e.value);
        json.kv("unit", e.unit);
        json.endObject();
    }
    json.endObject();
    json.endObject();
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
}

Metrics
layerMetrics(const std::map<std::string, double> &layers)
{
    Metrics m;
    for (const auto &[name, unit] : kLayerMetrics) {
        auto it = layers.find(name);
        m.add(name, it == layers.end() ? 0.0 : it->second, unit);
    }
    return m;
}

Metrics::Entry
errorRate(const Tally &tally)
{
    return {"error_rate",
            tally.attempted == 0 ? 0.0
                                 : static_cast<double>(tally.failed) /
                                       static_cast<double>(tally.attempted),
            "ratio",
            std::to_string(tally.failed) + " of " +
                std::to_string(tally.attempted) + " operations"};
}

std::string
countNote(size_t n, const char *what)
{
    return "n=" + std::to_string(n) + " " + what;
}

/** "pass wall min/median/max" note. */
std::string
wallNote(const std::vector<double> &walls)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "; pass wall min %.4g median %.4g max %.4g s",
                  *std::min_element(walls.begin(), walls.end()),
                  median(walls),
                  *std::max_element(walls.begin(), walls.end()));
    return buf;
}

// ---------------------------------------------------------------------
// Workload drivers.

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

int
runSimulationWorkload(const Options &opt, unsigned cls)
{
    std::vector<harness::RunJob> jobs;
    unsigned threads = 1;
    const pins::Entry *table = nullptr;
    size_t table_size = 0;
    if (opt.workload == "full-detail") {
        jobs = fullDetailJobs(cls);
        table = pins::kFullDetail;
        table_size = std::size(pins::kFullDetail);
    } else if (opt.workload == "sampled-smarts") {
        jobs = sampledJobs(cls);
        table = pins::kSampled;
        table_size = std::size(pins::kSampled);
    } else {
        jobs = fig6Jobs(cls);
        threads = hostParallelism();
        table = pins::kFig6;
        table_size = std::size(pins::kFig6);
    }
    std::vector<trace::Workload> workloads;
    for (const harness::RunJob &job : jobs)
        workloads.push_back(job.workload);
    SetupTimes setup_times = setup(workloads, false);

    Tally tally;
    if (opt.trace) {
        std::map<std::string, double> layers;
        tracedSimulation(jobs, threads, opt.seconds, tally, layers);
        layers["trace.catalogue_s"] = setup_times.catalogue;
        layers["trace.build_program_s"] = setup_times.build;
        printResult(tally, layerMetrics(layers), {errorRate(tally)});
        return 0;
    }

    const unsigned replicas = threads == 1 ? hostParallelism() : 1;
    SimPasses passes = runSimPasses(jobs, threads, replicas, opt.seconds,
                                    table, table_size, cls, tally);
    Metrics m;
    m.add("setup_s", setup_times.total, "s");
    m.add("wall_s", median(passes.walls), "s");
    m.add("host_mips", median(passes.mips), "MIPS");
    m.add("peak_rss_mb", peakRssMb(), "MB");

    std::vector<Metrics::Entry> extras;
    extras.push_back({"passes", static_cast<double>(passes.walls.size()),
                      "count",
                      countNote(jobs.size(), "runs per copy, ") +
                          std::to_string(replicas) + " copies x " +
                          std::to_string(threads) + " threads" +
                          wallNote(passes.walls)});
    if (opt.workload == "fig6-suite")
        extras.push_back({"ent4k_speedup_pct",
                          ent4kSpeedupPct(jobs, passes.last), "%",
                          "geomean over the CVP seeds"});
    if (opt.workload == "sampled-smarts") {
        double sum = 0.0, worst = 0.0;
        for (size_t i = 0; i < jobs.size(); ++i) {
            double ref = 0.0;
            for (const pins::Reference &r : pins::kSampledReference)
                if (r.cls == cls && jobs[i].workload.name == r.workload)
                    ref = r.ipc;
            double err =
                ref > 0.0
                    ? 100.0 * std::fabs(passes.last[i].stats.ipc() / ref - 1.0)
                    : 100.0;
            sum += err;
            worst = std::max(worst, err);
        }
        extras.push_back({"sampled_ipc_err_pct",
                          sum / static_cast<double>(jobs.size()), "%",
                          "mean |sampled/full - 1| over " +
                              std::to_string(jobs.size()) +
                              " runs; worst " + std::to_string(worst)});
    }
    extras.push_back(errorRate(tally));
    printResult(tally, m, extras);
    return 0;
}

int
runServeWorkload(const Options &opt, unsigned cls)
{
    const unsigned clients = serveParallelism();
    std::vector<trace::Workload> workloads = cvpWorkloads();
    workloads.push_back(catalogueWorkload("tiny"));
    SetupTimes setup_times = setup(workloads, true);

    Tally tally;
    if (opt.trace) {
        // Untraced passes on a daemon with spans off, traced passes of
        // the same keys on a second daemon with spans on and every
        // round trip timed; the traced cold artifacts must match the
        // untraced ones byte for byte.
        BenchDaemon plain(clients, 0);
        BenchDaemon traced(clients, 1u << 16);
        std::vector<double> plain_walls, traced_walls, submit, fetch, parse,
            bytes;
        uint64_t retries = 0;
        unsigned pass = 0;
        auto start = Clock::now();
        do {
            ServePlan plan = servePlan(cls, opt.seed, pass++);
            ServePass a = servePass(plain.clients, plan, tally);
            ServePass b = servePass(traced.clients, plan, tally);
            plain_walls.push_back(a.wallS);
            traced_walls.push_back(b.wallS);
            submit.insert(submit.end(), b.submitMs.begin(), b.submitMs.end());
            fetch.insert(fetch.end(), b.fetchMs.begin(), b.fetchMs.end());
            parse.push_back(b.parseS);
            bytes.push_back(b.coldBytes);
            retries += b.retries;
            for (const auto &[label, artifact] : a.coldArtifacts) {
                auto twin = b.coldArtifacts.find(label);
                if (twin == b.coldArtifacts.end() || twin->second != artifact)
                    tally.fail(label + ": traced daemon artifact differs");
            }
        } while (secondsSince(start) < opt.seconds);

        obs::CounterDump stats = traced.daemon->statsDump();
        std::string spans = traced.daemon->spansJson();
        std::map<std::string, double> layers;
        layers["trace.catalogue_s"] = setup_times.catalogue;
        layers["trace.build_program_s"] = setup_times.build;
        layers["obs.parse_s"] = median(parse);
        layers["obs.artifact_bytes"] = median(bytes);
        layers["serve.submit_rtt_ms"] = median(submit);
        layers["serve.fetch_rtt_ms"] = median(fetch);
        layers["serve.queue_wait_ms"] =
            median(spanDurationsMs(spans, "queued"));
        layers["serve.worker_ms"] = median(spanDurationsMs(spans, "forked"));
        double submits = counterValue(stats, "serve.submits");
        layers["serve.cache_hit_ratio"] =
            submits > 0.0 ? counterValue(stats, "serve.served_cache") / submits
                          : 0.0;
        layers["serve.rejected"] = static_cast<double>(retries);
        layers["serve.failed"] = counterValue(stats, "serve.failed");
        layers["serve.worker_crashes"] =
            counterValue(stats, "serve.worker_crashes");
        layers["traced_overhead_pct"] =
            100.0 * (median(traced_walls) / median(plain_walls) - 1.0);
        printResult(tally, layerMetrics(layers), {errorRate(tally)});
        return 0;
    }

    BenchDaemon daemon(clients, 0);
    std::vector<double> walls, mips, qps, cold, warm;
    uint64_t retries = 0;
    unsigned pass = 0;
    auto start = Clock::now();
    do {
        ServePass p =
            servePass(daemon.clients, servePlan(cls, opt.seed, pass++), tally);
        walls.push_back(p.wallS);
        mips.push_back(p.simulatedInsts / p.wallS / 1e6);
        qps.push_back(static_cast<double>(p.warmCount) / p.warmWallS);
        cold.insert(cold.end(), p.coldMs.begin(), p.coldMs.end());
        warm.insert(warm.end(), p.warmMs.begin(), p.warmMs.end());
        retries += p.retries;
    } while (secondsSince(start) < opt.seconds);

    Metrics m;
    m.add("setup_s", setup_times.total, "s");
    m.add("wall_s", median(walls), "s");
    m.add("host_mips", median(mips), "MIPS");
    m.add("peak_rss_mb", peakRssMb(), "MB");

    std::string clients_note = ", " + std::to_string(clients) +
                               " closed-loop clients, " +
                               std::to_string(clients) + " daemon workers";
    std::vector<Metrics::Entry> extras = {
        {"passes", static_cast<double>(walls.size()), "count",
         countNote(servePlan(cls, opt.seed, 0).cold.size(),
                   "cold keys per pass") +
             clients_note + wallNote(walls)},
        {"cold_p50_ms", percentile(cold, 0.50), "ms",
         countNote(cold.size(), "cold requests")},
        {"cold_p90_ms", percentile(cold, 0.90), "ms",
         countNote(cold.size(), "cold requests")},
        {"warm_p50_ms", percentile(warm, 0.50), "ms",
         countNote(warm.size(), "warm requests")},
        {"warm_p99_ms", percentile(warm, 0.99), "ms",
         countNote(warm.size(), "warm requests")},
        {"warm_qps", median(qps), "1/s", "median over passes"},
        {"serve.rejected", static_cast<double>(retries), "count",
         "backpressure retries"},
        errorRate(tally),
    };
    printResult(tally, m, extras);
    return 0;
}

// ---------------------------------------------------------------------
// Pin regeneration.

void
printPinTable(const char *name, const std::vector<harness::RunJob> &all_jobs,
              const std::vector<harness::RunResult> &results,
              const std::vector<unsigned> &classes)
{
    std::printf("inline constexpr Entry %s[] = {\n", name);
    size_t begin = 0;
    while (begin < all_jobs.size()) {
        size_t end = begin;
        while (end < all_jobs.size() && classes[end] == classes[begin])
            ++end;
        std::vector<harness::RunJob> jobs(all_jobs.begin() + begin,
                                 all_jobs.begin() + end);
        std::vector<harness::RunResult> res(results.begin() + begin,
                                            results.begin() + end);
        std::map<std::string, uint64_t> digests = workloadDigests(jobs, res);
        for (const auto &[workload, digest] : digests)
            std::printf("    {%u, \"%s\", 0x%016llxull},\n", classes[begin],
                        workload.c_str(),
                        static_cast<unsigned long long>(digest));
        begin = end;
    }
    std::printf("};\n\n");
}

int
printPins()
{
    harness::defaultCatalogue();
    auto pin = [](const char *name, std::vector<harness::RunJob> (*plan)(unsigned)) {
        std::vector<harness::RunJob> all;
        std::vector<unsigned> classes;
        for (unsigned cls = 0; cls < pins::kClasses; ++cls)
            for (harness::RunJob &job : plan(cls)) {
                all.push_back(std::move(job));
                classes.push_back(cls);
            }
        ReferencePass pass = runPass(all, hostParallelism());
        printPinTable(name, all, pass.results, classes);
    };
    std::printf("// Generated by `eipbench --pin`.\n\n");
    pin("kFullDetail", fullDetailJobs);
    pin("kSampled", sampledJobs);
    pin("kFig6", fig6Jobs);

    std::vector<harness::RunJob> refs;
    std::vector<unsigned> classes;
    for (unsigned cls = 0; cls < pins::kClasses; ++cls)
        for (harness::RunJob &job : sampledJobs(cls)) {
            job.spec = sampledReferenceSpec();
            refs.push_back(std::move(job));
            classes.push_back(cls);
        }
    ReferencePass pass = runPass(refs, hostParallelism());
    std::printf("inline constexpr Reference kSampledReference[] = {\n");
    for (size_t i = 0; i < refs.size(); ++i)
        std::printf("    {%u, \"%s\", %.17g},\n", classes[i],
                    refs[i].workload.name.c_str(),
                    pass.results[i].stats.ipc());
    std::printf("};\n");
    return 0;
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "eipbench: %s\n"
                 "usage: eipbench --workload full-detail|sampled-smarts|"
                 "fig6-suite|serve-mixed --seed N --seconds S --trace 0|1\n"
                 "       eipbench --pin\n",
                 why);
    std::exit(2);
}

uint64_t
parseUnsigned(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

int
run(int argc, char **argv)
{
    Options opt;
    bool pin = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--pin") {
            pin = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        if (arg == "--workload")
            opt.workload = value;
        else if (arg == "--seed")
            opt.seed = parseUnsigned("--seed", value);
        else if (arg == "--seconds")
            opt.seconds = static_cast<double>(
                parseUnsigned("--seconds", value));
        else if (arg == "--trace")
            opt.trace = parseUnsigned("--trace", value) != 0;
        else
            usage(("unknown flag " + arg).c_str());
    }
    if (const char *scratch = std::getenv("EIPBENCH_SCRATCH"))
        gScratch = scratch;
    if (pin)
        return printPins();

    const std::set<std::string> known = {"full-detail", "sampled-smarts",
                                         "fig6-suite", "serve-mixed"};
    if (known.count(opt.workload) == 0)
        usage("unknown workload");
    if (opt.seconds <= 0.0)
        usage("--seconds must be positive");

    const unsigned cls = static_cast<unsigned>(opt.seed % pins::kClasses);
    std::printf("meta %s\n",
                metaJson(opt.workload, opt.seed, cls, opt.seconds, opt.trace)
                    .c_str());
    std::fflush(stdout);
    if (opt.workload == "serve-mixed")
        return runServeWorkload(opt, cls);
    return runSimulationWorkload(opt, cls);
}

} // namespace

} // namespace eipbench

int
main(int argc, char **argv)
{
    return eipbench::run(argc, argv);
}
