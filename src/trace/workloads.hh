/**
 * @file
 * Workload catalogue: synthetic stand-ins for the CVP-1/2 trace categories
 * (crypto / int / fp / srv) and the CloudSuite applications evaluated in the
 * paper, plus trace-backed workloads replayed from on-disk files (our own
 * captured `.trc` streams and external ChampSim traces). Synthetic entries
 * are a (generator config, executor config) pair the harness builds and
 * executes on demand; trace-backed entries carry the file path and a
 * content digest so two different traces can never alias one identity.
 */

#ifndef EIP_TRACE_WORKLOADS_HH
#define EIP_TRACE_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/executor.hh"
#include "trace/program_builder.hh"

namespace eip::trace {

/** How a workload's instruction stream is produced. */
enum class WorkloadKind : uint8_t
{
    Synthetic, ///< generated CFG walked by the Executor
    EipTrace,  ///< our binary `.trc` capture format (trace_file.hh)
    ChampSim,  ///< ChampSim `.champsimtrace{,.xz,.gz}` (champsim.hh)
};

/** Stable lower-case name of @p kind ("synthetic", "eip-trace",
 *  "champsim") — used in canonical serializations and manifests. */
const char *workloadKindName(WorkloadKind kind);

/** A named workload. Synthetic entries are fully described by the
 *  (program, exec) configs; trace-backed entries by the trace content
 *  (path is where the bytes live, digest is what they are). */
struct Workload
{
    std::string name;
    std::string category; ///< crypto | int | fp | srv | cloud | trace
    ProgramConfig program;
    ExecutorConfig exec;

    /** Stream backend; trace-backed kinds ignore (program, exec) at run
     *  time but keep them as provenance for captured synthetics. */
    WorkloadKind kind = WorkloadKind::Synthetic;
    /** On-disk trace file (trace-backed kinds only). */
    std::string tracePath;
    /** Size in bytes of the trace file as stored (compressed size for
     *  .xz/.gz ChampSim traces). */
    uint64_t traceBytes = 0;
    /** 16-hex-digit FNV-1a digest of the trace file bytes. Part of the
     *  workload's canonical identity: two different traces at the same
     *  path get different digests, so artifacts and serve-cache entries
     *  can never alias on the path alone. */
    std::string traceDigest;
};

/** Base generator config for one CVP category (before seeding). */
ProgramConfig categoryConfig(const std::string &category);

/** The qualified seeds of one CVP-like category: the cvpCandidate
 *  indices of its first three candidates that pass qualifies().
 *  The table is pinned in source because the answer never changes; a
 *  test re-derives it with the production probe. */
struct CvpPin
{
    const char *category;
    int candidates[3];
};

/** The pinned selection, in suite order (crypto, int, fp, srv). */
extern const CvpPin kCvpPins[4];

/**
 * Candidate @p index (1-based) of a CVP-like @p category: the category's
 * generator config seeded with 0x1000 * index + strlen(category) and an
 * executor seed of 0x77 + index - 1. The name is left empty; cvpSuite
 * names each pinned candidate `category-k` by its rank k.
 */
Workload cvpCandidate(const std::string &category, int index);

/**
 * The CVP-like suite: the first @p seeds_per_category (1..3) qualified
 * seeds of each of the four categories, straight from kCvpPins. The
 * paper uses 959 selected traces; this laptop-scale sample preserves
 * the category mix. Builds no program and runs no instruction stream.
 */
std::vector<Workload> cvpSuite(int seeds_per_category = 3);

/** CloudSuite-like applications: cassandra, cloud9, nutch, streaming. */
std::vector<Workload> cloudSuite();

/** A small, fast workload for tests and the quickstart example. */
Workload tinyWorkload(uint64_t seed = 1);

/** Does @p path name a supported on-disk trace (by extension):
 *  `.trc`, `.champsimtrace`, `.champsimtrace.xz`, `.champsimtrace.gz`? */
bool isTracePath(const std::string &path);

/** Trace kind for a path isTracePath accepted. */
WorkloadKind kindFromTracePath(const std::string &path);

/**
 * Build a trace-backed workload from an on-disk trace file: stats the
 * file and digests its bytes (FNV-1a over the stored bytes, so the
 * digest is cheap even for compressed traces). Non-fatal: returns false
 * with a diagnostic in @p error (when non-null) on an unreadable or
 * unsupported file, so a daemon can reject bad submissions instead of
 * dying. Name is the path's basename, category "trace".
 */
bool tryTraceWorkload(const std::string &path, Workload &out,
                      std::string *error = nullptr);

/** As tryTraceWorkload, fatal on failure (one-shot CLI convenience). */
Workload traceWorkload(const std::string &path);

/** Instructions in one window of the selection probe: one recurrence
 *  window of the synthetic programs. */
constexpr uint64_t kQualifyWindow = 400000;

/** Footprint threshold of the selection probe: >= 40KB of touched code
 *  (vs the 32KB L1I) corresponds to >= 1 L1I MPKI on this simulator. */
constexpr uint64_t kQualifyFootprintBytes = 40 * 1024;

/**
 * The workload selection probe, emulating the paper's methodology (of
 * the CVP traces only those with >= 1 L1I MPKI on the baseline were
 * evaluated): stream the first kQualifyWindow instructions of
 * @p workload, of any kind, and admit it when their dynamic code
 * footprint (distinct 64-byte lines) reaches kQualifyFootprintBytes.
 * @p footprint_bytes, when non-null, receives the measured footprint
 * either way. Traces shorter than the window wrap (InstructionSource
 * loops), so the probe saturates at the trace's whole code footprint.
 * The pinned CVP suite was selected with it; at run time only corpus
 * traces of mixed catalogues are probed.
 */
bool qualifies(const Workload &workload,
               uint64_t *footprint_bytes = nullptr);

/**
 * Identity-preserving capture/replay pin: a workload that replays
 * @p path (an eip `.trc` capture of @p origin's stream) while keeping
 * the origin's name, category, and generator/executor provenance. The
 * capture's content digest still enters the canonical identity, so a
 * stale or foreign file at the path can never masquerade as the
 * capture it replaced.
 */
Workload capturedWorkload(const Workload &origin, const std::string &path);

} // namespace eip::trace

#endif // EIP_TRACE_WORKLOADS_HH
