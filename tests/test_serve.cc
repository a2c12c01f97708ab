/**
 * @file
 * Tests for the eipd job server (src/serve): the content-addressed
 * result cache, the eip-serve/v1 protocol round-trip, the forked
 * worker's spawn/read/collect steps, and the daemon end to end over a
 * real Unix-domain socket — cold simulate, warm cache-serve with
 * byte-identical artifacts, worker-crash isolation, explicit
 * backpressure, a stop that drains the queue, children that hold no
 * descriptor but their own pipe, and the one-thread loop's bounds
 * (thread count, job table, request line, a client that stops reading,
 * a response larger than the send buffer).
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/artifacts.hh"
#include "harness/canonical.hh"
#include "obs/json.hh"
#include "obs/registry.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/socket_io.hh"
#include "serve/worker.hh"
#include "sim/config.hh"
#include "trace/workloads.hh"

namespace {

using namespace eip;

/** Unique socket path per test so parallel ctest runs never collide. */
std::string
testSocket(const std::string &tag)
{
    return "/tmp/eip_serve_" + std::to_string(::getpid()) + "_" + tag +
           ".sock";
}

/** A fast tiny-workload request (sub-second even in Debug). */
serve::RunRequest
tinyRequest()
{
    serve::RunRequest run;
    run.workload = "tiny";
    run.instructions = 20000;
    run.warmup = 10000;
    return run;
}

/** A srv-1 request that simulates for well over a tiny job's lifetime
 *  (about 150 ms in a Release build); @p salt varies its cache key. */
serve::RunRequest
longRequest(uint64_t salt)
{
    serve::RunRequest run;
    run.workload = "srv-1";
    run.instructions = 500000 + salt;
    run.warmup = 10000;
    return run;
}

/** Fork @p job and wait for its outcome: the daemon loop's three
 *  steps, blocking instead of polled. */
serve::WorkerOutcome
runWorker(const harness::RunJob &job, bool inject_crash,
          bool collect_spans = false)
{
    serve::WorkerChild child;
    serve::WorkerOutcome outcome;
    if (!serve::spawnWorker(job, inject_crash, collect_spans, child,
                            outcome.error))
        return outcome;
    while (!serve::readWorker(child)) {
    }
    return serve::collectWorker(child);
}

/** Threads of this process right now. */
size_t
threadCount()
{
    size_t n = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)entry;
        ++n;
    }
    return n;
}

/** Submit @p run, wait for it and fetch its artifact. */
std::string
runToArtifact(serve::Client &client, const serve::RunRequest &run,
              serve::SubmitOutcome &outcome)
{
    std::string error;
    EXPECT_TRUE(client.submit(run, outcome, &error)) << error;
    EXPECT_TRUE(outcome.accepted) << outcome.error;
    serve::JobView view;
    EXPECT_TRUE(client.waitTerminal(outcome.job, view, 60.0, &error))
        << error;
    EXPECT_EQ(view.state, "done") << view.error;
    EXPECT_TRUE(client.fetch(outcome.job, view, &error)) << error;
    return view.artifact;
}

TEST(ResultCache, HitMissAndByteWeightedEviction)
{
    serve::ResultCache cache(100);
    EXPECT_EQ(cache.get("a"), nullptr);
    auto b = std::make_shared<const std::string>(60, 'y');
    cache.put("a", std::make_shared<const std::string>(60, 'x'));
    cache.put("b", b);
    // 120 bytes > 100: "a" (least recently served) is evicted.
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.get("a"), nullptr);
    // A hit hands out the stored copy itself, not a duplicate.
    serve::Artifact hit = cache.get("b");
    EXPECT_EQ(hit, b);
    EXPECT_EQ(*hit, std::string(60, 'y'));
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.bytes(), 60u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(ResultCache, RegisterStatsUsesSharedEvictionVocabulary)
{
    serve::ResultCache cache(1000);
    cache.put("k", std::make_shared<const std::string>("artifact"));
    obs::CounterRegistry registry;
    cache.registerStats(registry, "serve.cache");
    obs::CounterDump dump = registry.dump();
    EXPECT_EQ(dump.counter("serve.cache.hits").value(), 0u);
    EXPECT_EQ(dump.counter("serve.cache.misses").value(), 0u);
    EXPECT_EQ(dump.counter("serve.cache.evictions").value(), 0u);
    EXPECT_EQ(dump.counter("serve.cache.entries").value(), 1u);
    EXPECT_EQ(dump.counter("serve.cache.bytes").value(), 8u);
}

TEST(ServeProtocol, SubmitRoundTripsThroughJson)
{
    serve::Request request;
    request.op = serve::Request::Op::Submit;
    request.run.workload = "crypto-1";
    request.run.prefetcher = "entangling-4k";
    request.run.dataPrefetcher = "stride";
    request.run.instructions = 123456;
    request.run.warmup = 7890;
    request.run.physical = true;
    request.run.eventSkip = false;
    request.run.sampleInterval = 1000;
    request.run.injectCrash = true;

    serve::Request parsed;
    std::string error;
    ASSERT_TRUE(serve::parseRequest(serve::requestJson(request), parsed,
                                    error))
        << error;
    EXPECT_EQ(parsed.op, serve::Request::Op::Submit);
    EXPECT_EQ(parsed.run.workload, "crypto-1");
    EXPECT_EQ(parsed.run.prefetcher, "entangling-4k");
    EXPECT_EQ(parsed.run.dataPrefetcher, "stride");
    EXPECT_EQ(parsed.run.instructions, 123456u);
    EXPECT_EQ(parsed.run.warmup, 7890u);
    EXPECT_TRUE(parsed.run.physical);
    EXPECT_FALSE(parsed.run.eventSkip);
    EXPECT_EQ(parsed.run.sampleInterval, 1000u);
    EXPECT_TRUE(parsed.run.injectCrash);
}

TEST(ServeProtocol, EveryOpRoundTrips)
{
    for (serve::Request::Op op :
         {serve::Request::Op::Submit, serve::Request::Op::Status,
          serve::Request::Op::Fetch, serve::Request::Op::Stats,
          serve::Request::Op::Metrics, serve::Request::Op::Spans,
          serve::Request::Op::Shutdown}) {
        serve::Request request;
        request.op = op;
        request.job = 42;
        serve::Request parsed;
        std::string error;
        ASSERT_TRUE(serve::parseRequest(serve::requestJson(request), parsed,
                                        error))
            << serve::opName(op) << ": " << error;
        EXPECT_EQ(parsed.op, op);
    }
}

TEST(ServeProtocol, RejectsMalformedRequests)
{
    serve::Request parsed;
    std::string error;
    // Not JSON at all.
    EXPECT_FALSE(serve::parseRequest("not json", parsed, error));
    // Wrong schema.
    EXPECT_FALSE(serve::parseRequest(
        R"({"schema":"eip-run/v1","kind":"request","op":"stats"})", parsed,
        error));
    // Wrong kind.
    EXPECT_FALSE(serve::parseRequest(
        R"({"schema":"eip-serve/v1","kind":"response","op":"stats"})",
        parsed, error));
    // Unknown op.
    EXPECT_FALSE(serve::parseRequest(
        R"({"schema":"eip-serve/v1","kind":"request","op":"reboot"})",
        parsed, error));
    // Status without a job id.
    EXPECT_FALSE(serve::parseRequest(
        R"({"schema":"eip-serve/v1","kind":"request","op":"status"})",
        parsed, error));
    // Submit with a zero instruction budget.
    EXPECT_FALSE(serve::parseRequest(
        R"({"schema":"eip-serve/v1","kind":"request","op":"submit",)"
        R"("run":{"workload":"tiny","instructions":0}})",
        parsed, error));
    // Submit with a mistyped field.
    EXPECT_FALSE(serve::parseRequest(
        R"({"schema":"eip-serve/v1","kind":"request","op":"submit",)"
        R"("run":{"workload":"tiny","instructions":"many"}})",
        parsed, error));
    // Job ids past 2^64 - 1, and a hex literal JSON does not have.
    for (const char *job : {"1e30", "18446744073709551616", "0x10"}) {
        EXPECT_FALSE(serve::parseRequest(
            std::string(R"({"schema":"eip-serve/v1","kind":"request",)"
                        R"("op":"status","job":)") +
                job + "}",
            parsed, error))
            << job;
    }
    // The largest double below 2^64 is still a valid id.
    ASSERT_TRUE(serve::parseRequest(
        R"({"schema":"eip-serve/v1","kind":"request","op":"status",)"
        R"("job":18446744073709549568})",
        parsed, error))
        << error;
    EXPECT_EQ(parsed.job, 18446744073709549568ull);
}

TEST(ServeProtocol, ToRunSpecForcesCounterCollection)
{
    serve::RunRequest run = tinyRequest();
    harness::RunSpec spec = serve::toRunSpec(run);
    EXPECT_TRUE(spec.collectCounters);
    EXPECT_EQ(spec.configId, run.prefetcher);
    EXPECT_EQ(spec.instructions, run.instructions);
    EXPECT_EQ(spec.tracer, nullptr);
}

TEST(ForkedWorker, DeliversByteIdenticalArtifact)
{
    harness::RunJob job;
    job.workload = trace::tinyWorkload();
    job.spec = serve::toRunSpec(tinyRequest());

    serve::WorkerOutcome outcome = runWorker(job, false);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    EXPECT_FALSE(outcome.crashed);

    harness::ArtifactRun inProcess = harness::runJobArtifact(job);
    EXPECT_EQ(outcome.artifact, inProcess.json);
}

TEST(ForkedWorker, InjectedCrashYieldsStructuredSignalError)
{
    harness::RunJob job;
    job.workload = trace::tinyWorkload();
    job.spec = serve::toRunSpec(tinyRequest());

    serve::WorkerOutcome outcome = runWorker(job, true);
    EXPECT_FALSE(outcome.ok);
    EXPECT_TRUE(outcome.crashed);
    EXPECT_NE(outcome.error.find("signal"), std::string::npos);
    EXPECT_TRUE(outcome.artifact.empty());
}

TEST(ForkedWorker, PropagatesChildSpansWithoutChangingArtifactBytes)
{
    harness::RunJob job;
    job.workload = trace::tinyWorkload();
    job.spec = serve::toRunSpec(tinyRequest());

    serve::WorkerOutcome with_spans = runWorker(job, false, true);
    ASSERT_TRUE(with_spans.ok) << with_spans.error;
    ASSERT_FALSE(with_spans.childSpans.empty());

    // The child profiled its run phases and relayed them intact.
    std::vector<std::string> names;
    for (const obs::SpanRecord &span : with_spans.childSpans) {
        names.push_back(span.name);
        EXPECT_GT(span.startUs, 0u);
    }
    for (const char *expected :
         {"program_build", "warmup", "measure", "fill_drain", "serialize"})
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << "missing child phase span '" << expected << "'";

    // Span collection must not perturb the artifact: byte-identical to
    // the in-process run (which is itself the golden-gated rendering).
    harness::ArtifactRun inProcess = harness::runJobArtifact(job);
    EXPECT_EQ(with_spans.artifact, inProcess.json);
}

TEST(ForkedWorker, CrashWithSpanCollectionStillFailsStructured)
{
    harness::RunJob job;
    job.workload = trace::tinyWorkload();
    job.spec = serve::toRunSpec(tinyRequest());

    serve::WorkerOutcome outcome = runWorker(job, true, true);
    EXPECT_FALSE(outcome.ok);
    EXPECT_TRUE(outcome.crashed);
    EXPECT_NE(outcome.error.find("signal"), std::string::npos);
    // The child died before writing the preamble: no phantom spans.
    EXPECT_TRUE(outcome.childSpans.empty());
}

TEST(ServeDaemon, ColdRunThenCacheServedByteIdentical)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("cold_warm");
    options.workers = 2;
    options.queueDepth = 8;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;

    // Cold: must simulate.
    serve::SubmitOutcome cold;
    ASSERT_TRUE(client.submit(tinyRequest(), cold, &error)) << error;
    ASSERT_TRUE(cold.accepted) << cold.error;
    EXPECT_EQ(cold.served, "queue");
    EXPECT_EQ(cold.key.size(), 16u);

    serve::JobView coldView;
    ASSERT_TRUE(client.waitTerminal(cold.job, coldView, 60.0, &error))
        << error;
    ASSERT_EQ(coldView.state, "done");
    EXPECT_FALSE(coldView.servedFromCache);
    ASSERT_TRUE(client.fetch(cold.job, coldView, &error)) << error;
    ASSERT_FALSE(coldView.artifact.empty());

    // Warm: same request must come from the cache, byte for byte.
    serve::SubmitOutcome warm;
    ASSERT_TRUE(client.submit(tinyRequest(), warm, &error)) << error;
    ASSERT_TRUE(warm.accepted) << warm.error;
    EXPECT_EQ(warm.served, "cache");
    EXPECT_EQ(warm.state, "done");
    EXPECT_EQ(warm.key, cold.key);

    serve::JobView warmView;
    ASSERT_TRUE(client.fetch(warm.job, warmView, &error)) << error;
    EXPECT_TRUE(warmView.servedFromCache);
    EXPECT_EQ(warmView.artifact, coldView.artifact);

    // And both match a fresh in-process run of the same job exactly.
    harness::RunJob job;
    job.workload = trace::tinyWorkload();
    job.spec = serve::toRunSpec(tinyRequest());
    harness::ArtifactRun reference = harness::runJobArtifact(job);
    EXPECT_EQ(coldView.artifact, reference.json);

    // The daemon's own accounting agrees.
    obs::CounterDump stats = daemon.statsDump();
    EXPECT_EQ(stats.counter("serve.simulated").value(), 1u);
    EXPECT_EQ(stats.counter("serve.served_cache").value(), 1u);
    EXPECT_EQ(stats.counter("serve.cache.entries").value(), 1u);
    EXPECT_EQ(stats.counter("serve.failed").value(), 0u);

    daemon.stop();
}

TEST(ServeDaemon, ResponseLargerThanTheSendBufferArrivesWhole)
{
    // A fetch response bigger than the socket's send buffer leaves in
    // several sends across poll() rounds, each resuming where the last
    // one stopped.
    serve::DaemonOptions options;
    options.socketPath = testSocket("large");
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;

    serve::RunRequest run = tinyRequest();
    run.sampleInterval = 20; // 1000 counter snapshots in the artifact
    serve::SubmitOutcome outcome;
    ASSERT_TRUE(client.submit(run, outcome, &error)) << error;
    serve::JobView view;
    ASSERT_TRUE(client.waitTerminal(outcome.job, view, 60.0, &error))
        << error;

    // Fetch on a raw socket with a receive timeout, so a response that
    // never completes fails the test instead of hanging it.
    int fd = serve::connectUnix(options.socketPath, &error);
    ASSERT_GE(fd, 0) << error;
    const timeval limit{10, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit,
                           sizeof(limit)),
              0);
    serve::Request fetch;
    fetch.op = serve::Request::Op::Fetch;
    fetch.job = outcome.job;
    ASSERT_TRUE(serve::sendLine(fd, serve::requestJson(fetch)));
    std::string response;
    serve::LineReader reader(fd);
    const bool whole = reader.readLine(response);
    int send_buffer = 0;
    socklen_t size = sizeof(send_buffer);
    ASSERT_EQ(::getsockopt(fd, SOL_SOCKET, SO_SNDBUF, &send_buffer, &size),
              0);
    ::close(fd);
    ASSERT_TRUE(whole) << "the fetch response never completed";
    EXPECT_GT(response.size(), 2 * static_cast<size_t>(send_buffer));

    std::optional<obs::JsonValue> doc = obs::parseJson(response);
    ASSERT_TRUE(doc.has_value());
    harness::RunJob job;
    job.workload = trace::tinyWorkload();
    job.spec = serve::toRunSpec(run);
    EXPECT_EQ(doc->find("artifact")->string,
              harness::runJobArtifact(job).json);
    daemon.stop();
}

TEST(ServeDaemon, StatsDocumentIsServeSchema)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("stats");
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    std::string stats_line;
    ASSERT_TRUE(client.stats(stats_line, &error)) << error;

    std::optional<obs::JsonValue> doc = obs::parseJson(stats_line);
    ASSERT_TRUE(doc.has_value());
    EXPECT_EQ(doc->find("schema")->string, "eip-serve/v1");
    EXPECT_EQ(doc->find("kind")->string, "stats");
    EXPECT_EQ(doc->find("tool")->string, "eipd");
    ASSERT_NE(doc->find("counters"), nullptr);
    EXPECT_NE(doc->find("counters")->find("serve.requests"), nullptr);
    EXPECT_NE(doc->find("counters")->find("serve.cache.hits"), nullptr);
    EXPECT_NE(doc->find("counters")->find("serve.program_cache.hits"),
              nullptr);
    ASSERT_NE(doc->find("histograms"), nullptr);
    EXPECT_NE(doc->find("histograms")->find("serve.request_wall_ms"),
              nullptr);

    daemon.stop();
}

TEST(ServeDaemon, InvalidRequestsGetStructuredErrors)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("invalid");
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;

    serve::RunRequest bad_workload = tinyRequest();
    bad_workload.workload = "no-such-workload";
    serve::SubmitOutcome outcome;
    ASSERT_TRUE(client.submit(bad_workload, outcome, &error)) << error;
    EXPECT_FALSE(outcome.accepted);
    EXPECT_FALSE(outcome.rejected);
    EXPECT_NE(outcome.error.find("unknown workload"), std::string::npos);

    serve::RunRequest bad_prefetcher = tinyRequest();
    bad_prefetcher.prefetcher = "no-such-prefetcher";
    ASSERT_TRUE(client.submit(bad_prefetcher, outcome, &error)) << error;
    EXPECT_FALSE(outcome.accepted);
    EXPECT_NE(outcome.error.find("unknown prefetcher"), std::string::npos);

    serve::JobView view;
    EXPECT_FALSE(client.status(999, view, &error));
    EXPECT_NE(error.find("unknown job"), std::string::npos);

    obs::CounterDump stats = daemon.statsDump();
    EXPECT_GE(stats.counter("serve.invalid").value(), 3u);

    daemon.stop();
}

TEST(ServeDaemon, CrashingWorkerFailsInIsolation)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("crash");
    options.workers = 2;
    options.queueDepth = 8;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;

    // Distinct workloads so every job actually simulates (no cache
    // short-circuit), interleaved with the fault-injected one.
    std::vector<std::string> workloads = {"tiny", "crypto-1", "int-1"};
    std::vector<uint64_t> healthy;
    serve::SubmitOutcome outcome;
    serve::RunRequest crash = tinyRequest();
    crash.injectCrash = true;

    ASSERT_TRUE(client.submit(tinyRequest(), outcome, &error)) << error;
    // (cold tiny run; will also be in flight while the crash happens)
    ASSERT_TRUE(outcome.accepted) << outcome.error;
    healthy.push_back(outcome.job);

    ASSERT_TRUE(client.submit(crash, outcome, &error)) << error;
    ASSERT_TRUE(outcome.accepted) << outcome.error;
    const uint64_t crash_job = outcome.job;

    for (size_t i = 1; i < workloads.size(); ++i) {
        serve::RunRequest run = tinyRequest();
        run.workload = workloads[i];
        ASSERT_TRUE(client.submit(run, outcome, &error)) << error;
        ASSERT_TRUE(outcome.accepted) << outcome.error;
        healthy.push_back(outcome.job);
    }

    // The crash job fails alone, with the signal in the error...
    serve::JobView view;
    ASSERT_TRUE(client.waitTerminal(crash_job, view, 60.0, &error)) << error;
    EXPECT_EQ(view.state, "failed");
    EXPECT_NE(view.error.find("signal"), std::string::npos);

    // ...every other in-flight/queued job still completes...
    for (uint64_t job : healthy) {
        ASSERT_TRUE(client.waitTerminal(job, view, 60.0, &error)) << error;
        EXPECT_EQ(view.state, "done") << "job " << job << ": " << view.error;
    }

    // ...and the daemon is still fully serving afterwards.
    serve::SubmitOutcome after;
    ASSERT_TRUE(client.submit(tinyRequest(), after, &error)) << error;
    ASSERT_TRUE(after.accepted) << after.error;
    EXPECT_EQ(after.served, "cache"); // the healthy tiny run seeded it

    obs::CounterDump stats = daemon.statsDump();
    EXPECT_EQ(stats.counter("serve.worker_crashes").value(), 1u);
    EXPECT_EQ(stats.counter("serve.failed").value(), 1u);
    EXPECT_EQ(stats.counter("serve.simulated").value(),
              static_cast<uint64_t>(workloads.size()));

    daemon.stop();
}

TEST(ServeDaemon, FullQueueRejectsWithBackpressure)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("backpressure");
    options.workers = 1;
    options.queueDepth = 1;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;

    // Flood: distinct requests (different budgets, so distinct cache
    // keys) against a queue of one. Submitting is microseconds, each
    // simulation is many milliseconds — rejections are guaranteed.
    std::vector<uint64_t> accepted;
    uint64_t rejected = 0;
    for (int i = 0; i < 8; ++i) {
        serve::RunRequest run = tinyRequest();
        run.instructions = 100000 + static_cast<uint64_t>(i);
        serve::SubmitOutcome outcome;
        ASSERT_TRUE(client.submit(run, outcome, &error)) << error;
        if (outcome.accepted)
            accepted.push_back(outcome.job);
        else if (outcome.rejected)
            ++rejected;
    }
    EXPECT_GE(rejected, 1u);
    EXPECT_GE(accepted.size(), 1u);

    // Accepted work is unaffected by the shed load.
    for (uint64_t job : accepted) {
        serve::JobView view;
        ASSERT_TRUE(client.waitTerminal(job, view, 120.0, &error)) << error;
        EXPECT_EQ(view.state, "done") << view.error;
    }

    obs::CounterDump stats = daemon.statsDump();
    EXPECT_EQ(stats.counter("serve.rejected_queue_full").value(), rejected);
    EXPECT_EQ(stats.counter("serve.simulated").value(), accepted.size());

    daemon.stop();
}

TEST(ServeDaemon, OneThreadServesManyConnections)
{
    for (unsigned workers : {1u, 2u, 3u}) {
        serve::DaemonOptions options;
        options.socketPath = testSocket("threads");
        options.workers = workers;
        serve::Daemon daemon(options);
        const size_t baseline = threadCount();
        std::string error;
        ASSERT_TRUE(daemon.start(&error)) << error;
        EXPECT_EQ(threadCount(), baseline + 1) << workers << " workers";

        std::vector<int> idle;
        for (int i = 0; i < 64; ++i) {
            int fd = serve::connectUnix(options.socketPath, &error);
            ASSERT_GE(fd, 0) << error;
            idle.push_back(fd);
        }

        serve::Client client;
        ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
        serve::SubmitOutcome outcome;
        serve::RunRequest run = tinyRequest();
        run.instructions += workers; // cold in every round
        EXPECT_FALSE(runToArtifact(client, run, outcome).empty());
        EXPECT_EQ(threadCount(), baseline + 1) << workers << " workers";

        // Every idle connection is live and answered by the same thread.
        serve::Request stats;
        stats.op = serve::Request::Op::Stats;
        for (int fd : idle) {
            ASSERT_TRUE(serve::sendLine(fd, serve::requestJson(stats)));
            serve::LineReader reader(fd);
            std::string line;
            ASSERT_TRUE(reader.readLine(line));
            EXPECT_NE(line.find("\"kind\":\"stats\""), std::string::npos);
        }
        EXPECT_EQ(threadCount(), baseline + 1) << workers << " workers";

        for (int fd : idle)
            ::close(fd);
        daemon.stop();
        EXPECT_EQ(threadCount(), baseline);
    }
}

TEST(ServeDaemon, StopRunsEveryQueuedJob)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("drain");
    options.workers = 1;
    options.queueDepth = 8;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    uint64_t accepted = 0;
    for (uint64_t i = 0; i < 6; ++i) {
        serve::RunRequest run = tinyRequest();
        run.instructions = 100000 + i;
        serve::SubmitOutcome outcome;
        ASSERT_TRUE(client.submit(run, outcome, &error)) << error;
        ASSERT_TRUE(outcome.accepted) << outcome.error;
        ++accepted;
    }
    // One child at a time: most of the jobs are still queued.
    EXPECT_LT(daemon.statsDump().counter("serve.simulated").value(),
              accepted);
    client.close();

    daemon.stop();
    obs::CounterDump stats = daemon.statsDump();
    EXPECT_EQ(stats.counter("serve.simulated").value(), accepted);
    EXPECT_EQ(stats.counter("serve.failed").value(), 0u);
    EXPECT_EQ(stats.gauge("serve.queue.depth").value(), 0.0);
}

TEST(ServeDaemon, FetchRedeemsAFinishedJobOnce)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("redeem");
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    serve::SubmitOutcome cold;
    const std::string artifact = runToArtifact(client, tinyRequest(), cold);
    ASSERT_FALSE(artifact.empty());

    serve::JobView view;
    EXPECT_FALSE(client.status(cold.job, view, &error));
    EXPECT_EQ(error, "unknown job " + std::to_string(cold.job));
    EXPECT_FALSE(client.fetch(cold.job, view, &error));
    EXPECT_EQ(error, "unknown job " + std::to_string(cold.job));

    // The artifact outlives its job in the result cache.
    serve::SubmitOutcome warm;
    EXPECT_EQ(runToArtifact(client, tinyRequest(), warm), artifact);
    EXPECT_EQ(warm.served, "cache");
    EXPECT_NE(warm.job, cold.job);

    daemon.stop();
}

TEST(ServeDaemon, FinishedJobTableIsCapped)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("cap");
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    serve::SubmitOutcome seed;
    const std::string artifact = runToArtifact(client, tinyRequest(), seed);
    ASSERT_FALSE(artifact.empty());

    // Cache hits nobody fetches: each one is a finished job at once.
    const size_t overflow = 64;
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < serve::Daemon::kFinishedJobCap + overflow; ++i) {
        serve::SubmitOutcome outcome;
        ASSERT_TRUE(client.submit(tinyRequest(), outcome, &error)) << error;
        ASSERT_EQ(outcome.served, "cache");
        ids.push_back(outcome.job);
    }

    serve::JobView view;
    for (size_t i = 0; i < overflow; ++i) {
        EXPECT_FALSE(client.status(ids[i], view, &error)) << ids[i];
        EXPECT_EQ(error, "unknown job " + std::to_string(ids[i]));
    }
    ASSERT_TRUE(client.status(ids[overflow], view, &error)) << error;
    EXPECT_EQ(view.state, "done");
    ASSERT_TRUE(client.fetch(ids.back(), view, &error)) << error;
    EXPECT_EQ(view.artifact, artifact);

    daemon.stop();
}

TEST(ServeDaemon, StalledReaderDoesNotBlockOthers)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("stalled");
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // A pipelines stats requests and never reads, until its own send
    // would block: by then the daemon holds an unsent response for A.
    int stalled = serve::connectUnix(options.socketPath, &error);
    ASSERT_GE(stalled, 0) << error;
    ASSERT_EQ(::fcntl(stalled, F_SETFL,
                      ::fcntl(stalled, F_GETFL) | O_NONBLOCK),
              0);
    serve::Request stats;
    stats.op = serve::Request::Op::Stats;
    const std::string line = serve::requestJson(stats) + "\n";
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    bool blocked = false;
    while (!blocked && std::chrono::steady_clock::now() < give_up) {
        ssize_t n = ::send(stalled, line.data(), line.size(), MSG_NOSIGNAL);
        if (n < 0) {
            ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << errno;
            // Give the daemon a moment to drain what it can, then see
            // whether the pipe is still full.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            blocked = ::send(stalled, line.data(), line.size(),
                             MSG_NOSIGNAL) < 0;
        }
    }
    ASSERT_TRUE(blocked) << "the daemon kept draining a client that "
                            "never reads";

    const auto start = std::chrono::steady_clock::now();
    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    serve::SubmitOutcome outcome;
    EXPECT_FALSE(runToArtifact(client, tinyRequest(), outcome).empty());
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));

    ::close(stalled);
    daemon.stop();
}

TEST(ServeDaemon, OversizedRequestLineIsRejected)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("oversized");
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    int fd = serve::connectUnix(options.socketPath, &error);
    ASSERT_GE(fd, 0) << error;
    // A daemon that buffers forever must fail this test, not hang it.
    const timeval limit{10, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &limit,
                           sizeof(limit)),
              0);
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &limit,
                           sizeof(limit)),
              0);
    // Twice the cap and no newline. The daemon hangs up part way, so
    // the send ends early with an error; that is the expected outcome.
    const std::string junk(2 * serve::Daemon::kMaxRequestBytes, 'x');
    size_t sent = 0;
    while (sent < junk.size()) {
        ssize_t n = ::send(fd, junk.data() + sent, junk.size() - sent,
                           MSG_NOSIGNAL);
        if (n <= 0)
            break;
        sent += static_cast<size_t>(n);
    }
    serve::LineReader reader(fd);
    std::string line;
    ASSERT_TRUE(reader.readLine(line));
    std::optional<obs::JsonValue> doc = obs::parseJson(line);
    ASSERT_TRUE(doc.has_value()) << line;
    EXPECT_EQ(doc->find("status")->string, "invalid");
    EXPECT_NE(doc->find("error")->string.find("exceeds"), std::string::npos);
    EXPECT_FALSE(reader.readLine(line)); // and the connection is closed
    ::close(fd);

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    serve::SubmitOutcome outcome;
    EXPECT_FALSE(runToArtifact(client, tinyRequest(), outcome).empty());
    EXPECT_EQ(daemon.statsDump().counter("serve.invalid").value(), 1u);

    daemon.stop();
}

TEST(ServeDaemon, ShutdownOpStopsTheDaemon)
{
    serve::DaemonOptions options;
    options.socketPath = testSocket("shutdown");
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    ASSERT_TRUE(client.shutdown(&error)) << error;

    daemon.waitStopRequested(); // returns because the op fired
    daemon.stop();
    // The socket is gone: a fresh connect must fail.
    serve::Client after;
    EXPECT_FALSE(after.connect(options.socketPath, &error));
}

TEST(ServeDaemon, ShortJobFinishesWhileALongerSiblingRuns)
{
    // Two children alive at once must not hold each other's pipes: a
    // child that inherited the short job's write end would keep that
    // job's end-of-file, and so its result, waiting until the long
    // simulation exits.
    serve::DaemonOptions options;
    options.socketPath = testSocket("siblings");
    options.workers = 2;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    serve::Client client;
    ASSERT_TRUE(client.connect(options.socketPath, &error)) << error;
    // Both submits leave in one send, so the daemon admits them in one
    // wake-up and forks the two children back to back.
    int fd = serve::connectUnix(options.socketPath, &error);
    ASSERT_GE(fd, 0) << error;
    serve::LineReader reader(fd);

    for (uint64_t round = 0; round < 16; ++round) {
        serve::Request slow, quick;
        slow.op = quick.op = serve::Request::Op::Submit;
        slow.run = longRequest(round);
        quick.run = tinyRequest();
        quick.run.instructions += round;
        ASSERT_TRUE(serve::sendLine(fd, serve::requestJson(slow) + "\n" +
                                            serve::requestJson(quick)));
        uint64_t ids[2] = {0, 0};
        for (uint64_t &id : ids) {
            std::string line;
            ASSERT_TRUE(reader.readLine(line));
            std::optional<obs::JsonValue> doc = obs::parseJson(line);
            ASSERT_TRUE(doc.has_value() && doc->find("job") != nullptr)
                << line;
            id = doc->find("job")->asU64();
        }

        serve::JobView view;
        ASSERT_TRUE(client.waitTerminal(ids[1], view, 60.0, &error))
            << error;
        EXPECT_EQ(view.state, "done") << view.error;
        ASSERT_TRUE(client.status(ids[0], view, &error)) << error;
        EXPECT_EQ(view.state, "running")
            << "round " << round << ": the short job finished only "
            << "after the long one";
        ASSERT_TRUE(client.waitTerminal(ids[0], view, 60.0, &error))
            << error;
        EXPECT_EQ(view.state, "done") << view.error;
    }
    ::close(fd);
    daemon.stop();
}

TEST(ServeDaemon, ChildHoldsNoClientConnection)
{
    // A child that kept the daemon's descriptors would keep every client
    // connection open until its simulation ended, even one the daemon
    // has closed.
    serve::DaemonOptions options;
    options.socketPath = testSocket("child_fds");
    options.workers = 1;
    serve::Daemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;

    // B is accepted (a round trip proves it) before the job forks.
    int b = serve::connectUnix(options.socketPath, &error);
    ASSERT_GE(b, 0) << error;
    const timeval limit{10, 0};
    ASSERT_EQ(::setsockopt(b, SOL_SOCKET, SO_RCVTIMEO, &limit,
                           sizeof(limit)),
              0);
    ASSERT_EQ(::setsockopt(b, SOL_SOCKET, SO_SNDTIMEO, &limit,
                           sizeof(limit)),
              0);
    serve::Request stats;
    stats.op = serve::Request::Op::Stats;
    ASSERT_TRUE(serve::sendLine(b, serve::requestJson(stats)));
    serve::LineReader reader(b);
    std::string line;
    ASSERT_TRUE(reader.readLine(line));

    serve::Client a;
    ASSERT_TRUE(a.connect(options.socketPath, &error)) << error;
    serve::SubmitOutcome job;
    serve::RunRequest run = longRequest(0);
    run.instructions = 4000000; // about a second in a Release build
    ASSERT_TRUE(a.submit(run, job, &error)) << error;
    ASSERT_TRUE(job.accepted) << job.error;
    serve::JobView view;
    do {
        ASSERT_TRUE(a.status(job.job, view, &error)) << error;
    } while (view.state == "queued");
    ASSERT_EQ(view.state, "running");

    // An oversized line makes the daemon answer B and close it.
    const std::string junk(2 * serve::Daemon::kMaxRequestBytes, 'x');
    size_t sent = 0;
    while (sent < junk.size()) {
        ssize_t n = ::send(b, junk.data() + sent, junk.size() - sent,
                           MSG_NOSIGNAL);
        if (n <= 0)
            break;
        sent += static_cast<size_t>(n);
    }
    ASSERT_TRUE(reader.readLine(line));
    EXPECT_NE(line.find("\"status\":\"invalid\""), std::string::npos);
    EXPECT_FALSE(reader.readLine(line)); // end of file...
    ::close(b);
    ASSERT_TRUE(a.status(job.job, view, &error)) << error;
    EXPECT_EQ(view.state, "running"); // ...while the child still runs

    ASSERT_TRUE(a.waitTerminal(job.job, view, 120.0, &error)) << error;
    EXPECT_EQ(view.state, "done") << view.error;
    daemon.stop();
}

} // namespace
