#include "serve/worker.hh"

#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/artifacts.hh"
#include "obs/phase.hh"

namespace eip::serve {

namespace {

/** Write all of @p text to @p fd, looping over partial writes. Errors
 *  are ignored — the child has no better channel to report them on;
 *  the parent sees a truncated artifact and records the failure. */
void
writeAll(int fd, const std::string &text)
{
    size_t written = 0;
    while (written < text.size()) {
        ssize_t n =
            ::write(fd, text.data() + written, text.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        written += static_cast<size_t>(n);
    }
}

/** Child-side body: simulate, stream the artifact (followed by the
 *  span preamble when profiling), _exit. Never returns. */
[[noreturn]] void
childMain(int write_fd, const harness::RunJob &job, bool inject_crash,
          bool collect_spans)
{
    // Keep stdio and the pipe, moved to descriptor 3, and nothing else.
    constexpr int kPipeFd = 3;
    if (write_fd != kPipeFd)
        ::dup2(write_fd, kPipeFd);
    ::close_range(kPipeFd + 1, ~0u, 0);
    write_fd = kPipeFd;

    if (inject_crash) {
        // Mid-run fault: a recognizable artifact prefix is already on
        // the wire when the process dies, so the parent also proves it
        // discards partial output.
        writeAll(write_fd, "{\"schema\":\"eip-run/v1\"");
        std::abort();
    }
    obs::PhaseProfiler profiler;
    harness::ArtifactRun run = harness::runJobArtifact(
        job, /*use_program_cache=*/false,
        collect_spans ? &profiler : nullptr);
    writeAll(write_fd, run.json);
    if (collect_spans) {
        std::vector<obs::SpanRecord> spans;
        for (const obs::PhaseInterval &iv : profiler.intervals()) {
            obs::SpanRecord span;
            span.name = iv.name;
            span.startUs = iv.startUs;
            span.durUs = iv.endUs - iv.startUs;
            spans.push_back(std::move(span));
        }
        writeAll(write_fd, obs::spanPreambleJson(spans));
    }
    ::close(write_fd);
    ::_exit(0);
}

} // namespace

bool
spawnWorker(const harness::RunJob &job, bool inject_crash,
            bool collect_spans, WorkerChild &child, std::string &error)
{
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
        error = std::string("pipe: ") + std::strerror(errno);
        return false;
    }

    pid_t pid = ::fork();
    if (pid < 0) {
        error = std::string("fork: ") + std::strerror(errno);
        ::close(pipe_fds[0]);
        ::close(pipe_fds[1]);
        return false;
    }
    if (pid == 0)
        childMain(pipe_fds[1], job, inject_crash, collect_spans);

    ::close(pipe_fds[1]);
    // Through syscall(): glibc 2.36's <sys/pidfd.h> declares
    // pidfd_open without C linkage.
    int pid_fd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
    if (pid_fd < 0) {
        error = std::string("pidfd_open: ") + std::strerror(errno);
        ::close(pipe_fds[0]);
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        return false;
    }
    child = WorkerChild{pid, pipe_fds[0], pid_fd, {}};
    return true;
}

bool
readWorker(WorkerChild &child)
{
    char chunk[65536];
    ssize_t n = ::read(child.pipeFd, chunk, sizeof(chunk));
    if (n > 0) {
        child.payload.append(chunk, static_cast<size_t>(n));
        return false;
    }
    if (n < 0 && errno == EINTR)
        return false;
    ::close(child.pipeFd);
    child.pipeFd = -1;
    return true;
}

WorkerOutcome
collectWorker(WorkerChild &child)
{
    WorkerOutcome outcome;
    int status = 0;
    pid_t reaped;
    do {
        reaped = ::waitpid(child.pid, &status, 0);
    } while (reaped < 0 && errno == EINTR);
    if (reaped != child.pid)
        outcome.error = std::string("waitpid: ") + std::strerror(errno);
    ::close(child.pidFd);
    child.pidFd = -1;

    // The artifact is always exactly one line; anything after its
    // newline is the optional span preamble. A payload with no newline
    // at all is a truncated artifact and falls through to the length
    // check below unchanged.
    std::string payload = std::move(child.payload);
    std::string artifact;
    std::string preamble;
    if (!obs::splitWorkerPayload(payload, artifact, preamble))
        artifact = std::move(payload);
    if (!preamble.empty() &&
        !obs::parseSpanPreamble(preamble, outcome.childSpans))
        outcome.childSpans.clear(); // partial preamble: spans are lost,
                                    // the artifact still counts

    if (reaped != child.pid)
        return outcome;
    if (WIFSIGNALED(status)) {
        outcome.crashed = true;
        outcome.error = "worker killed by signal " +
                        std::to_string(WTERMSIG(status));
        return outcome;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        outcome.error =
            "worker exited with status " +
            std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
        return outcome;
    }
    // A clean exit must still have delivered a complete document: the
    // artifact renderer always terminates with "}\n".
    if (artifact.size() < 2 ||
        artifact.compare(artifact.size() - 2, 2, "}\n") != 0) {
        outcome.error = "worker exited cleanly but delivered a truncated "
                        "artifact (" +
                        std::to_string(artifact.size()) + " bytes)";
        return outcome;
    }

    outcome.ok = true;
    outcome.artifact = std::move(artifact);
    return outcome;
}

} // namespace eip::serve
