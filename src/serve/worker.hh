/**
 * @file
 * Crash-isolated job execution: each simulation runs in a forked child
 * process that streams its rendered eip-run/v1 artifact back over a
 * pipe and _exit()s. A child that crashes — assertion, bad memory
 * access, injected fault — takes down only its own address space: the
 * parent reaps it, decodes the wait status into a structured error,
 * and keeps serving every other request.
 *
 * The three steps never block on a live child, so one poll() loop can
 * drive any number of them: spawnWorker forks, readWorker takes one
 * chunk of the pipe each time poll() reports it ready, and
 * collectWorker reaps once the pidfd reports the exit.
 */

#ifndef EIP_SERVE_WORKER_HH
#define EIP_SERVE_WORKER_HH

#include <sys/types.h>

#include <string>
#include <vector>

#include "harness/runner.hh"
#include "obs/span.hh"

namespace eip::serve {

/** What became of one forked job. */
struct WorkerOutcome
{
    bool ok = false;
    /** The child died on a signal (as opposed to a clean nonzero exit
     *  or a truncated artifact). */
    bool crashed = false;
    std::string artifact; ///< complete eip-run/v1 document when ok
    std::string error;    ///< structured failure description when !ok
    /** Phase spans the child recorded (program_build, warmup, measure,
     *  fill_drain, serialize — absolute monotonic timestamps), relayed
     *  over the pipe as an eip-span/v1 preamble after the artifact
     *  line. Empty unless collect_spans, or when the child died before
     *  writing it. */
    std::vector<obs::SpanRecord> childSpans;
};

/** A forked child from spawnWorker until collectWorker. */
struct WorkerChild
{
    pid_t pid = -1;
    int pipeFd = -1;     ///< read end of the artifact pipe; -1 after EOF
    int pidFd = -1;      ///< pidfd_open(pid): readable once it exits
    std::string payload; ///< bytes the pipe has delivered so far
};

/**
 * Fork a child that runs @p job and writes its artifact into a pipe.
 * With @p inject_crash the child writes a deliberately truncated
 * artifact and abort()s mid-run — the fault path the crash-isolation
 * tests exercise end to end. With @p collect_spans the child profiles
 * its run phases and appends them as a one-line eip-span/v1 preamble
 * after the artifact; the artifact bytes themselves are unchanged, so
 * cached results stay byte-identical whether spans are on or off.
 *
 * The child first closes every descriptor but stdio and its own pipe
 * (the listener, client connections, sibling pipes), so none of them
 * outlives its owner's close() in the parent. It never touches the
 * parent's ProgramCache (see runJobArtifact's fork-safety note), and
 * leaves via _exit() so no atexit handler of the embedding process
 * (bench banners, artifact writers) runs twice.
 *
 * False with @p error when the pipe, the fork or the pidfd fails; no
 * child is left behind then.
 */
bool spawnWorker(const harness::RunJob &job, bool inject_crash,
                 bool collect_spans, WorkerChild &child,
                 std::string &error);

/** One read from the child's pipe, for when poll() reports pipeFd
 *  ready. True at end of file (or a read error), with pipeFd closed. */
bool readWorker(WorkerChild &child);

/** Reap the child and decode its payload and wait status. Call once
 *  readWorker has reached end of file and pidFd is readable: the
 *  child has exited, so the wait returns at once. Closes pidFd. */
WorkerOutcome collectWorker(WorkerChild &child);

} // namespace eip::serve

#endif // EIP_SERVE_WORKER_HH
