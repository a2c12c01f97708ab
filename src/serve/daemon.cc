#include "serve/daemon.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "exec/program_cache.hh"
#include "harness/canonical.hh"
#include "obs/json.hh"
#include "obs/log.hh"
#include "obs/manifest.hh"
#include "prefetch/factory.hh"
#include "serve/socket_io.hh"
#include "serve/worker.hh"
#include "sim/config.hh"

namespace eip::serve {

namespace {

/** Cache-geometry config ids runOne accepts that are not prefetcher
 *  ids (see RunSpec::configId). */
bool
isCacheConfigId(const std::string &id)
{
    return id == "ideal" || id == "l1i-64kb" || id == "l1i-96kb";
}

/** Open a response document with the shared envelope fields. */
obs::JsonWriter
responseHead(Request::Op op, const char *status)
{
    obs::JsonWriter json;
    json.beginObject();
    json.kv("schema", obs::kServeSchema);
    json.kv("kind", "response");
    json.kv("op", opName(op));
    json.kv("status", status);
    return json;
}

} // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)), gitDescribe_(obs::buildGitDescribe()),
      cache_(options_.cacheBytes),
      metrics_(options_.metricsWindowSeconds)
{
    if (options_.spanLimit > 0)
        spans_ = std::make_unique<obs::SpanCollector>(options_.spanLimit);
    registry_.counter("serve.requests", [this] { return requests_.load(); });
    registry_.counter("serve.invalid", [this] { return invalid_.load(); });
    registry_.counter("serve.submits", [this] { return submits_.load(); });
    registry_.counter("serve.rejected_queue_full",
                      [this] { return rejectedQueueFull_.load(); });
    registry_.counter("serve.served_cache",
                      [this] { return servedCache_.load(); });
    registry_.counter("serve.simulated", [this] { return simulated_.load(); });
    registry_.counter("serve.failed", [this] { return failed_.load(); });
    registry_.counter("serve.worker_crashes",
                      [this] { return workerCrashes_.load(); });
    registry_.counter("serve.queue.high_water",
                      [this] { return pendingHighWater_.load(); });
    registry_.gauge("serve.queue.depth", [this] {
        return static_cast<double>(pendingDepth_.load());
    });
    cache_.registerStats(registry_, "serve.cache");
    // The program cache only sees cold (forked) runs' parents — the
    // children bypass it — but its eviction stats still describe this
    // process, and the shared vocabulary keeps dashboards uniform.
    exec::ProgramCache::global().registerStats(registry_,
                                               "serve.program_cache");
    registry_.histogram("serve.request_wall_ms", &requestWallMs_);
    // Interpolated request-latency percentiles (util::Histogram's
    // type-7 estimator — the same math the manifest-side percentile
    // helper uses, so daemon and manifest numbers agree). The closures
    // re-enter histMutex_ from inside statsDump's dump(); it is
    // recursive for exactly that.
    for (const auto &[name, q] :
         {std::pair<const char *, double>{"serve.request_wall_ms.p50", 0.50},
          {"serve.request_wall_ms.p95", 0.95},
          {"serve.request_wall_ms.p99", 0.99}}) {
        const double quantile = q;
        registry_.gauge(name, [this, quantile] {
            std::lock_guard<std::recursive_mutex> lock(histMutex_);
            return requestWallMs_.percentile(quantile);
        });
    }
    // The rolling window: what the daemon is doing *now* (last N
    // seconds), as opposed to the since-start counters above.
    registry_.gauge("serve.window.seconds", [this] {
        return static_cast<double>(metrics_.windowSeconds());
    });
    registry_.gauge("serve.window.requests", [this] {
        return static_cast<double>(metrics_.view().requests);
    });
    registry_.gauge("serve.window.qps",
                    [this] { return metrics_.view().qps; });
    registry_.gauge("serve.window.hit_ratio",
                    [this] { return metrics_.view().hitRatio; });
    registry_.gauge("serve.window.p50_ms",
                    [this] { return metrics_.view().p50Ms; });
    registry_.gauge("serve.window.p95_ms",
                    [this] { return metrics_.view().p95Ms; });
    registry_.gauge("serve.window.p99_ms",
                    [this] { return metrics_.view().p99Ms; });
    if (spans_ != nullptr) {
        registry_.counter("serve.spans.recorded",
                          [this] { return spans_->recorded(); });
        registry_.counter("serve.spans.dropped",
                          [this] { return spans_->dropped(); });
    }
}

Daemon::~Daemon()
{
    stop();
}

bool
Daemon::start(std::string *error)
{
    EIP_ASSERT(!started_, "daemon started twice");
    // Warm the workload catalogue before accepting traffic: it is
    // expensive to build (harness::findWorkload docs), every submit
    // validates against it, and building it here means forked children
    // inherit it ready-made.
    trace::Workload ignore;
    harness::findWorkload("tiny", ignore);
    listenFd_ = listenUnix(options_.socketPath, error);
    if (listenFd_ < 0)
        return false;
    started_ = true;
    ioThread_ = std::thread([this] { ioLoop(); });
    EIP_LOG_INFO("eipd", "listening",
                 obs::LogField("socket", options_.socketPath),
                 obs::LogField("workers",
                               static_cast<uint64_t>(options_.workers)),
                 obs::LogField("queue_depth",
                               static_cast<uint64_t>(options_.queueDepth)),
                 obs::LogField("span_limit",
                               static_cast<uint64_t>(options_.spanLimit)));
    return true;
}

void
Daemon::requestStop()
{
    {
        std::lock_guard<std::mutex> lock(stopMutex_);
        stopRequested_ = true;
    }
    stopCv_.notify_all();
}

void
Daemon::waitStopRequested()
{
    std::unique_lock<std::mutex> lock(stopMutex_);
    stopCv_.wait(lock, [this] { return stopRequested_; });
}

void
Daemon::stop()
{
    if (!started_ || stopped_)
        return;
    stopped_ = true;
    requestStop();

    // shutdown() of the listening socket wakes the loop's poll() with
    // POLLHUP: the loop closes every connection, runs every queued job
    // to completion and returns.
    ::shutdown(listenFd_, SHUT_RDWR);
    ioThread_.join();
    ::close(listenFd_);
    listenFd_ = -1;

    ::unlink(options_.socketPath.c_str());
    EIP_LOG_INFO("eipd", "stopped",
                 obs::LogField("requests", requests_.load()),
                 obs::LogField("simulated", simulated_.load()),
                 obs::LogField("served_cache", servedCache_.load()),
                 obs::LogField("failed", failed_.load()));
}

void
Daemon::ioLoop()
{
    std::vector<Connection> conns;
    std::vector<pollfd> fds;
    bool accepting = true;
    for (;;) {
        spawnPending();
        if (!accepting && running_.empty())
            break; // stopping, and every queued job has finished

        // Slot 0 is the listener (-1 once stopping, which poll()
        // skips), slots 1..running_.size() the children, and the rest
        // conns in order. A child is polled on its pipe until end of
        // file, then on its pidfd until it exits. A connection waits to
        // read only while it owes no response, so responses leave in
        // request order and one slow reader stalls only itself.
        fds.assign(1, pollfd{accepting ? listenFd_ : -1, POLLIN, 0});
        for (uint64_t id : running_) {
            const WorkerChild &child = jobs_.at(id).child;
            fds.push_back(pollfd{child.pipeFd >= 0 ? child.pipeFd
                                                   : child.pidFd,
                                 POLLIN, 0});
        }
        const size_t first_conn = fds.size();
        for (const Connection &conn : conns)
            fds.push_back(pollfd{conn.fd,
                                 static_cast<short>(conn.outbox.empty()
                                                        ? POLLIN
                                                        : POLLOUT),
                                 0});
        if (::poll(fds.data(), fds.size(), -1) < 0) {
            if (errno == EINTR)
                continue;
            EIP_LOG_ERROR("eipd", "poll_failed",
                          obs::LogField("error", std::strerror(errno)));
            break;
        }

        size_t kept = 0;
        for (size_t i = 0; i < running_.size(); ++i) {
            const uint64_t id = running_[i];
            WorkerChild &child = jobs_.at(id).child;
            const bool ready = fds[i + 1].revents != 0;
            if (ready && child.pipeFd >= 0) {
                readWorker(child); // at EOF the pidfd takes its slot
            } else if (ready) {
                finishJob(id, collectWorker(child));
                continue;
            }
            running_[kept++] = id;
        }
        running_.resize(kept);

        // stop() shut the listener down: close every connection and
        // keep going only until the jobs are done.
        if (accepting && fds[0].revents & (POLLHUP | POLLERR | POLLNVAL)) {
            accepting = false;
            for (const Connection &conn : conns)
                ::close(conn.fd);
            conns.clear();
            continue;
        }

        kept = 0;
        for (size_t i = 0; i < conns.size(); ++i) {
            const short revents = fds[first_conn + i].revents;
            if (revents & POLLNVAL ||
                !pump(conns[i], revents & (POLLIN | POLLHUP | POLLERR))) {
                ::close(conns[i].fd);
                continue;
            }
            if (kept != i)
                conns[kept] = std::move(conns[i]);
            ++kept;
        }
        conns.resize(kept);

        if (fds[0].revents & POLLIN) {
            int fd = ::accept4(listenFd_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
            if (fd >= 0) {
                conns.emplace_back();
                conns.back().fd = fd;
            }
        }
    }
    for (const Connection &conn : conns)
        ::close(conn.fd);
}

bool
Daemon::pump(Connection &conn, bool readable)
{
    for (;;) {
        if (!conn.outbox.empty()) {
            ssize_t n = ::send(conn.fd, conn.outbox.data() + conn.sent,
                               conn.outbox.size() - conn.sent, MSG_NOSIGNAL);
            if (n < 0)
                return errno == EAGAIN || errno == EWOULDBLOCK ||
                       errno == EINTR;
            conn.sent += static_cast<size_t>(n);
            if (conn.sent < conn.outbox.size())
                continue;
            conn.outbox.clear();
            conn.sent = 0;
            if (conn.closing)
                return false;
        }
        std::string line;
        if (takeLine(conn.inbox, line)) {
            conn.outbox = respond(line, conn.closing) + '\n';
            continue;
        }
        // The buffer holds at most the cap plus one read, because the
        // check runs after every read.
        if (conn.inbox.size() > kMaxRequestBytes) {
            requests_.fetch_add(1);
            invalid_.fetch_add(1);
            conn.inbox.clear();
            const std::string error = "request line exceeds " +
                                      std::to_string(kMaxRequestBytes) +
                                      " bytes";
            conn.outbox = invalidResponse(Request::Op::Stats, error) + '\n';
            conn.closing = true;
            continue;
        }
        // One read per wake-up keeps a chatty client from starving the
        // rest; poll() reports whatever it left unread next round.
        if (!readable)
            return true;
        readable = false;
        char chunk[65536];
        ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (n == 0)
            return false; // hung up; a half-written request is not one
        if (n < 0)
            return errno == EAGAIN || errno == EWOULDBLOCK ||
                   errno == EINTR;
        conn.inbox.append(chunk, static_cast<size_t>(n));
    }
}

std::string
Daemon::respond(const std::string &line, bool &close_after)
{
    requests_.fetch_add(1);
    Request request;
    std::string parse_error;
    if (!parseRequest(line, request, parse_error)) {
        invalid_.fetch_add(1);
        // The op could not be parsed; answer under the envelope's
        // least-specific op so the client still gets a line back.
        return invalidResponse(Request::Op::Stats, parse_error);
    }
    close_after = request.op == Request::Op::Shutdown;
    return dispatch(request);
}

void
Daemon::spawnPending()
{
    while (running_.size() < options_.workers && !pending_.empty()) {
        const uint64_t id = pending_.front();
        pending_.pop_front();
        pendingDepth_.store(pending_.size());
        Job &job = jobs_.at(id);
        job.state = Job::State::Running;
        job.forkUs = obs::monotonicMicros();
        WorkerOutcome failure;
        if (spawnWorker(job.run, job.injectCrash, spans_ != nullptr,
                        job.child, failure.error))
            running_.push_back(id);
        else
            finishJob(id, std::move(failure));
    }
}

void
Daemon::finishJob(uint64_t id, WorkerOutcome outcome)
{
    Job &job = jobs_.at(id);
    const uint64_t fork_end_us = obs::monotonicMicros();
    double ms = static_cast<double>(fork_end_us - job.forkUs) / 1000.0;
    {
        std::lock_guard<std::recursive_mutex> lock(histMutex_);
        requestWallMs_.record(static_cast<size_t>(ms));
    }

    Artifact artifact;
    if (outcome.ok) {
        artifact =
            std::make_shared<const std::string>(std::move(outcome.artifact));
        if (!job.injectCrash)
            cache_.put(job.key, artifact);
    }

    if (outcome.ok)
        simulated_.fetch_add(1);
    else
        failed_.fetch_add(1);
    if (outcome.crashed)
        workerCrashes_.fetch_add(1);

    metrics_.record(outcome.ok ? MetricsWindow::Outcome::Simulated
                               : MetricsWindow::Outcome::Failed,
                    ms);

    if (spans_ != nullptr) {
        // queued: admission to fork; forked: the whole child lifetime;
        // the child's own phase spans ride the preamble; request:
        // submit to terminal state.
        spans_->record({job.traceId, "queued", job.enqueueUs,
                        job.forkUs - job.enqueueUs, ""});
        spans_->record({job.traceId, "forked", job.forkUs,
                        fork_end_us - job.forkUs, ""});
        spans_->recordChild(job.traceId, outcome.childSpans);
        const char *terminal = outcome.ok        ? "done"
                               : outcome.crashed ? "crashed"
                                                 : "failed";
        spans_->record({job.traceId, "request", job.submitUs,
                        fork_end_us - job.submitUs, terminal});
    }

    if (outcome.ok) {
        EIP_LOG_INFO("eipd", "job_done", obs::LogField("job", id),
                     obs::LogField("wall_ms", ms),
                     obs::LogField("trace", job.traceId));
        job.state = Job::State::Done;
        job.artifact = std::move(artifact);
    } else {
        EIP_LOG_WARN("eipd", "job_failed", obs::LogField("job", id),
                     obs::LogField("crashed", outcome.crashed),
                     obs::LogField("error", outcome.error),
                     obs::LogField("trace", job.traceId));
        job.state = Job::State::Failed;
        job.error = std::move(outcome.error);
    }
}

const char *
Daemon::stateName(Job::State state)
{
    switch (state) {
      case Job::State::Queued: return "queued";
      case Job::State::Running: return "running";
      case Job::State::Done: return "done";
      case Job::State::Failed: return "failed";
    }
    return "unknown";
}

std::string
Daemon::invalidResponse(Request::Op op, const std::string &error)
{
    obs::JsonWriter json = responseHead(op, "invalid");
    json.kv("error", error);
    json.endObject();
    return json.str();
}

std::string
Daemon::dispatch(const Request &request)
{
    switch (request.op) {
      case Request::Op::Submit:
        return handleSubmit(request.run);
      case Request::Op::Status:
      case Request::Op::Fetch:
        return handleJob(request.op, request.job);
      case Request::Op::Stats:
        return statsJson();
      case Request::Op::Metrics:
        return metricsJson();
      case Request::Op::Spans: {
          if (spans_ == nullptr)
              return invalidResponse(request.op,
                                     "span collection is disabled "
                                     "(daemon started with --span-limit 0)");
          return spansJson();
      }
      case Request::Op::Shutdown: {
          requestStop();
          EIP_LOG_INFO("eipd", "shutdown_requested");
          obs::JsonWriter json = responseHead(request.op, "ok");
          json.endObject();
          return json.str();
      }
    }
    return invalidResponse(request.op, "unhandled op");
}

std::string
Daemon::handleSubmit(const RunRequest &run)
{
    submits_.fetch_add(1);

    trace::Workload workload;
    if (!harness::findWorkload(run.workload, workload)) {
        invalid_.fetch_add(1);
        return invalidResponse(Request::Op::Submit,
                               "unknown workload '" + run.workload + "'");
    }
    if (!isCacheConfigId(run.prefetcher) &&
        !prefetch::knownPrefetcherId(run.prefetcher)) {
        invalid_.fetch_add(1);
        return invalidResponse(Request::Op::Submit,
                               "unknown prefetcher '" + run.prefetcher +
                                   "'");
    }
    if (!prefetch::knownPrefetcherId(run.dataPrefetcher)) {
        invalid_.fetch_add(1);
        return invalidResponse(Request::Op::Submit,
                               "unknown data prefetcher '" +
                                   run.dataPrefetcher + "'");
    }

    harness::RunSpec spec = toRunSpec(run);
    const std::string key = harness::resultCacheKey(
        gitDescribe_, sim::SimConfig{}, spec, workload);

    // A trace opens only once the request is semantically valid — the
    // invalid paths above never become request spans, so closed root
    // spans reconcile exactly against the outcome counters.
    const uint64_t submit_us = obs::monotonicMicros();
    const uint64_t trace_id = spans_ != nullptr ? spans_->newTrace() : 0;

    // Cache probe first: a hit answers without consuming queue space or
    // forking a worker. Fault-injected jobs never touch the cache in
    // either direction — their artifacts are garbage by design.
    if (!run.injectCrash) {
        Artifact artifact = cache_.get(key);
        const uint64_t probe_end_us = obs::monotonicMicros();
        if (spans_ != nullptr)
            spans_->record({trace_id, "cache_lookup", submit_us,
                            probe_end_us - submit_us, ""});
        if (artifact) {
            servedCache_.fetch_add(1);
            const double ms =
                static_cast<double>(probe_end_us - submit_us) / 1000.0;
            metrics_.record(MetricsWindow::Outcome::Cache, ms);
            {
                std::lock_guard<std::recursive_mutex> lock(histMutex_);
                requestWallMs_.record(static_cast<size_t>(ms));
            }
            if (spans_ != nullptr)
                spans_->record({trace_id, "request", submit_us,
                                probe_end_us - submit_us, "cache"});
            Job job;
            job.key = key;
            job.traceId = trace_id;
            job.submitUs = submit_us;
            job.state = Job::State::Done;
            job.servedFromCache = true;
            job.artifact = std::move(artifact);
            const uint64_t id = addJob(std::move(job));
            EIP_LOG_DEBUG("eipd", "cache_served",
                          obs::LogField("job", id),
                          obs::LogField("key", key),
                          obs::LogField("trace", trace_id));
            obs::JsonWriter json = responseHead(Request::Op::Submit,
                                                "accepted");
            json.kv("job", id);
            json.kv("key", key);
            json.kv("served", "cache");
            json.kv("state", "done");
            json.endObject();
            return json.str();
        }
    }

    if (pending_.size() >= options_.queueDepth) {
        rejectedQueueFull_.fetch_add(1);
        metrics_.record(MetricsWindow::Outcome::Rejected, 0.0);
        if (spans_ != nullptr)
            spans_->record({trace_id, "request", submit_us,
                            obs::monotonicMicros() - submit_us,
                            "rejected"});
        EIP_LOG_WARN("eipd", "rejected",
                     obs::LogField("workload", run.workload),
                     obs::LogField("queue_capacity",
                                   static_cast<uint64_t>(
                                       options_.queueDepth)),
                     obs::LogField("trace", trace_id));
        obs::JsonWriter json = responseHead(Request::Op::Submit,
                                            "rejected");
        json.kv("error", "queue full");
        json.kv("queue_capacity", static_cast<uint64_t>(
                                      options_.queueDepth));
        json.endObject();
        return json.str();
    }

    Job job;
    job.run.workload = workload;
    job.run.spec = spec;
    job.key = key;
    job.injectCrash = run.injectCrash;
    job.traceId = trace_id;
    job.submitUs = submit_us;
    job.enqueueUs = obs::monotonicMicros();
    const uint64_t id = addJob(std::move(job));
    pending_.push_back(id);
    pendingDepth_.store(pending_.size());
    if (pending_.size() > pendingHighWater_.load())
        pendingHighWater_.store(pending_.size());

    EIP_LOG_DEBUG("eipd", "enqueued", obs::LogField("job", id),
                  obs::LogField("workload", run.workload),
                  obs::LogField("trace", trace_id));
    obs::JsonWriter json = responseHead(Request::Op::Submit, "accepted");
    json.kv("job", id);
    json.kv("key", key);
    json.kv("served", "queue");
    json.kv("state", "queued");
    json.endObject();
    return json.str();
}

uint64_t
Daemon::addJob(Job job)
{
    const uint64_t id = nextJobId_++;
    jobs_.emplace(id, std::move(job));
    // Live jobs are bounded by the queue and the workers, so the scan
    // past them to the oldest finished job is short.
    for (auto it = jobs_.begin();
         jobs_.size() > kFinishedJobCap && it != jobs_.end();) {
        if (it->second.finished())
            it = jobs_.erase(it);
        else
            ++it;
    }
    return id;
}

std::string
Daemon::handleJob(Request::Op op, uint64_t id)
{
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        invalid_.fetch_add(1);
        return invalidResponse(op, "unknown job " + std::to_string(id));
    }
    const Job &job = it->second;
    const bool fetch = op == Request::Op::Fetch;
    obs::JsonWriter json = responseHead(op, "ok");
    json.kv("job", id);
    json.kv("state", stateName(job.state));
    json.kv("served_from_cache", job.servedFromCache);
    if (fetch && job.state == Job::State::Done) {
        json.kv("key", job.key);
        // As a JSON *string* value: escape/unescape round-trips exactly,
        // so the client recovers the artifact byte for byte (including
        // the trailing newline every artifact file carries).
        json.kv("artifact", *job.artifact);
    }
    if (job.state == Job::State::Failed)
        json.kv("error", job.error);
    json.endObject();
    // A finished job is redeemed by its fetch: the artifact lives on in
    // the result cache, where a resubmit finds it.
    if (fetch && job.finished())
        jobs_.erase(it);
    return json.str();
}

obs::CounterDump
Daemon::statsDump()
{
    std::lock_guard<std::recursive_mutex> lock(histMutex_);
    return registry_.dump();
}

std::string
Daemon::statsJson()
{
    obs::JsonWriter json;
    json.beginObject();
    json.kv("schema", obs::kServeSchema);
    json.kv("kind", "stats");
    json.kv("tool", "eipd");
    json.kv("git_describe", gitDescribe_);
    json.kv("workers", options_.workers);
    json.kv("queue_capacity", static_cast<uint64_t>(options_.queueDepth));
    json.kv("cache_capacity_bytes", options_.cacheBytes);
    json.kv("span_limit", static_cast<uint64_t>(options_.spanLimit));
    obs::writeCounterSections(json, statsDump());
    json.endObject();
    return json.str();
}

std::string
Daemon::metricsJson()
{
    const MetricsWindow::View view = metrics_.view();
    obs::JsonWriter json = responseHead(Request::Op::Metrics, "ok");
    json.key("window").beginObject();
    json.kv("seconds", view.windowSeconds);
    json.kv("requests", view.requests);
    json.kv("cache_hits", view.cacheHits);
    json.kv("simulated", view.simulated);
    json.kv("failed", view.failed);
    json.kv("rejected", view.rejected);
    json.kv("qps", view.qps);
    json.kv("hit_ratio", view.hitRatio);
    json.kv("p50_ms", view.p50Ms);
    json.kv("p95_ms", view.p95Ms);
    json.kv("p99_ms", view.p99Ms);
    json.endObject();
    // The Prometheus page rides the NDJSON protocol as one escaped
    // string value; eipc metrics unescapes it back to scrape text.
    json.kv("exposition",
            prometheusText(statsDump(),
                           {{"tool", "eipd"},
                            {"git_describe", gitDescribe_}}));
    json.endObject();
    return json.str();
}

std::string
Daemon::spansJson()
{
    if (spans_ == nullptr)
        return {};
    std::string doc = spans_->toJson({{"tool", "eipd"},
                                      {"git_describe", gitDescribe_}});
    // One line on the wire, like every other response.
    if (!doc.empty() && doc.back() == '\n')
        doc.pop_back();
    return doc;
}

} // namespace eip::serve
