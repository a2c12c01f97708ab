/**
 * @file
 * The eipd job server: simulation as a service over a local Unix-domain
 * socket. The daemon is one thread running one poll() loop over the
 * listening socket, every connection (non-blocking sockets, one
 * buffered response per connection, so a client that stops reading
 * stalls only itself) and every running job. A submit that misses the
 * cache joins a bounded queue of pending jobs (full queue = explicit
 * "rejected" response, the client's cue to back off); while fewer than
 * --workers children are alive the loop forks the next one into a
 * throwaway child process (src/serve/worker.hh), so a crashing run can
 * never take the daemon down, and reads its artifact pipe and pidfd
 * like any other descriptor.
 *
 * Completed artifacts land in a content-addressed ResultCache keyed by
 * harness::resultCacheKey; a resubmitted request is answered from the
 * cache without forking, byte-identical to the cold run. The job table
 * stays bounded: a fetch that returns a finished job redeems it (later
 * status/fetch of that id answer "unknown job"; resubmit to hit the
 * cache), and finished jobs nobody fetches are dropped oldest-first
 * past kFinishedJobCap. Everything the daemon does is observable:
 * cache, queue and failure counters live in an obs::CounterRegistry
 * served by the "stats" op as one eip-serve/v1 document.
 */

#ifndef EIP_SERVE_DAEMON_HH
#define EIP_SERVE_DAEMON_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "harness/runner.hh"
#include "obs/registry.hh"
#include "obs/span.hh"
#include "serve/metrics.hh"
#include "serve/protocol.hh"
#include "serve/result_cache.hh"
#include "serve/worker.hh"
#include "util/histogram.hh"

namespace eip::serve {

struct DaemonOptions
{
    std::string socketPath;
    /** Maximum forked simulations alive at once. */
    unsigned workers = 2;
    /** Pending-job capacity; submits beyond it are rejected. */
    size_t queueDepth = 64;
    /** Result-cache budget in artifact bytes. */
    uint64_t cacheBytes = 64ull << 20;
    /** Request-span ring capacity; 0 disables span collection (the
     *  "spans" op then answers invalid and workers skip the preamble). */
    size_t spanLimit = 4096;
    /** Rolling metrics window length for the "metrics" op. */
    uint64_t metricsWindowSeconds = 60;
};

class Daemon
{
  public:
    /** Finished jobs kept for a later fetch before the oldest unfetched
     *  one is dropped (its artifact stays in the result cache). */
    static constexpr size_t kFinishedJobCap = 1024;

    /** Longest request line the daemon buffers; a connection that sends
     *  more without a newline gets an invalid response and is closed.
     *  Real requests are well under 1 KB. */
    static constexpr size_t kMaxRequestBytes = 1u << 20;

    explicit Daemon(DaemonOptions options);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Bind the socket and start the daemon's one thread. False with a
     *  diagnostic on socket errors (path too long, bind refused). */
    bool start(std::string *error);

    /** Note a stop request (shutdown op, signal): wakes the thread in
     *  waitStopRequested(). Safe from any thread; does not tear down. */
    void requestStop();

    /** Block until requestStop() — the owning thread's idle wait. */
    void waitStopRequested();

    /** Full teardown: stop accepting and close every connection, run
     *  every queued job to completion, join the loop's thread, unlink
     *  the socket. Idempotent. */
    void stop();

    const DaemonOptions &options() const { return options_; }

    /** Snapshot of every registered counter (tests, benches). */
    obs::CounterDump statsDump();

    /** The eip-serve/v1 stats document (one line, no newline). */
    std::string statsJson();

    /** The "metrics" response: window view + Prometheus exposition. */
    std::string metricsJson();

    /** The eip-trace/v1 serve span document (one line, no trailing
     *  newline), or empty when spans are disabled. */
    std::string spansJson();

    /** The live span collector (tests); nullptr when disabled. */
    obs::SpanCollector *spans() { return spans_.get(); }

  private:
    /** One tracked submit and what became of it. */
    struct Job
    {
        harness::RunJob run;
        std::string key;
        bool injectCrash = false;
        uint64_t traceId = 0;   ///< span trace id (0 when spans off)
        uint64_t submitUs = 0;  ///< request-received monotonic time
        uint64_t enqueueUs = 0; ///< pending-queue push time
        uint64_t forkUs = 0;    ///< spawn time (Running onwards)
        WorkerChild child;      ///< the forked child while Running
        enum class State
        {
            Queued,
            Running,
            Done,
            Failed,
        } state = State::Queued;
        bool servedFromCache = false;
        Artifact artifact; ///< set when Done; shared with cache_
        std::string error;

        bool
        finished() const
        {
            return state == State::Done || state == State::Failed;
        }
    };

    /** One client socket as the I/O loop sees it. */
    struct Connection
    {
        int fd = -1;
        std::string inbox;  ///< received bytes not yet framed
        std::string outbox; ///< the pending response (read stops while set)
        size_t sent = 0;    ///< bytes of the outbox already sent
        bool closing = false; ///< hang up once the outbox drains
    };

    static const char *stateName(Job::State state);

    void ioLoop();
    bool pump(Connection &conn, bool readable);
    /** Fork pending jobs while fewer than options_.workers run. */
    void spawnPending();
    /** Record @p outcome for running job @p id: cache, counters,
     *  spans, and its terminal state. */
    void finishJob(uint64_t id, WorkerOutcome outcome);

    /** Record @p job under the next id and drop the oldest finished
     *  jobs past kFinishedJobCap. Returns the id. */
    uint64_t addJob(Job job);

    std::string respond(const std::string &line, bool &close_after);
    std::string dispatch(const Request &request);
    std::string handleSubmit(const RunRequest &run);
    /** The status or fetch response for job @p id; a fetch of a
     *  finished job erases it. */
    std::string handleJob(Request::Op op, uint64_t id);
    std::string invalidResponse(Request::Op op, const std::string &error);

    DaemonOptions options_;
    std::string gitDescribe_;

    int listenFd_ = -1;
    bool started_ = false;
    bool stopped_ = false;

    std::thread ioThread_;

    std::mutex stopMutex_;
    std::condition_variable stopCv_;
    bool stopRequested_ = false;

    ResultCache cache_;

    // The job table, the pending queue and the running list belong to
    // the loop's thread; nothing else touches them.
    /** Keyed by the monotonic job id, so begin() is the oldest. */
    std::map<uint64_t, Job> jobs_;
    uint64_t nextJobId_ = 1;
    std::deque<uint64_t> pending_;  ///< admitted, not yet forked
    std::vector<uint64_t> running_; ///< forked, not yet reaped

    // Read by statsDump() from any thread.
    std::atomic<uint64_t> pendingDepth_{0}; ///< pending_.size()
    std::atomic<uint64_t> pendingHighWater_{0};
    std::atomic<uint64_t> rejectedQueueFull_{0};
    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> invalid_{0};
    std::atomic<uint64_t> submits_{0};
    std::atomic<uint64_t> servedCache_{0};
    std::atomic<uint64_t> simulated_{0};
    std::atomic<uint64_t> failed_{0};
    std::atomic<uint64_t> workerCrashes_{0};

    /** Per-request wall time, bucketed in milliseconds. Guarded by
     *  histMutex_ (also held across statsJson's registry dump so a
     *  concurrent record can't tear a snapshot; recursive because the
     *  registered percentile gauges re-enter it from inside dump()). */
    std::recursive_mutex histMutex_;
    Histogram requestWallMs_{128};

    /** Request spans; allocated only when options_.spanLimit > 0 so a
     *  disabled collector is one pointer test on every hook. */
    std::unique_ptr<obs::SpanCollector> spans_;
    MetricsWindow metrics_;

    obs::CounterRegistry registry_;
};

} // namespace eip::serve

#endif // EIP_SERVE_DAEMON_HH
