#include "trace/workloads.hh"

#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <optional>
#include <unordered_set>

#include "trace/source.hh"
#include "util/hash.hh"
#include "util/panic.hh"

namespace eip::trace {

const char *
workloadKindName(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::Synthetic:
        return "synthetic";
    case WorkloadKind::EipTrace:
        return "eip-trace";
    case WorkloadKind::ChampSim:
        return "champsim";
    }
    EIP_PANIC("unknown WorkloadKind");
}

ProgramConfig
categoryConfig(const std::string &category)
{
    ProgramConfig cfg;
    if (category == "crypto") {
        // Medium footprint, tight loops, few calls: moderate L1I pressure.
        cfg.numFunctions = 400;
        cfg.minBlocksPerFunction = 6;
        cfg.maxBlocksPerFunction = 14;
        cfg.minBlockInsts = 4;
        cfg.maxBlockInsts = 16;
        cfg.condBlockFraction = 0.35;
        cfg.callBlockFraction = 0.12;
        cfg.jumpBlockFraction = 0.06;
        cfg.loopFraction = 0.45;
        cfg.minLoopTrips = 4;
        cfg.maxLoopTrips = 16;
        cfg.fpFraction = 0.05;
        cfg.indirectFraction = 0.05;
        cfg.dispatcherFanout = 96;
        cfg.dispatcherLoopTrips = 12;
        cfg.maxCalleeCost = 5000.0;
        cfg.moduleCount = 2;
    } else if (category == "int") {
        // Branchy integer code, medium footprint and call depth.
        cfg.numFunctions = 1100;
        cfg.minBlocksPerFunction = 4;
        cfg.maxBlocksPerFunction = 12;
        cfg.minBlockInsts = 2;
        cfg.maxBlockInsts = 12;
        cfg.condBlockFraction = 0.40;
        cfg.callBlockFraction = 0.22;
        cfg.jumpBlockFraction = 0.08;
        cfg.loopFraction = 0.20;
        cfg.minLoopTrips = 2;
        cfg.maxLoopTrips = 16;
        cfg.indirectFraction = 0.10;
        cfg.dispatcherFanout = 32;
        cfg.dispatcherEvery = 80;
        cfg.dispatcherLoopTrips = 8;
        cfg.maxCalleeCost = 1500.0;
        cfg.moduleCount = 4;
    } else if (category == "fp") {
        // Large basic blocks, long loops, FP mix.
        cfg.numFunctions = 700;
        cfg.minBlocksPerFunction = 4;
        cfg.maxBlocksPerFunction = 10;
        cfg.minBlockInsts = 8;
        cfg.maxBlockInsts = 24;
        cfg.condBlockFraction = 0.30;
        cfg.callBlockFraction = 0.18;
        cfg.jumpBlockFraction = 0.05;
        cfg.loopFraction = 0.42;
        cfg.minLoopTrips = 4;
        cfg.maxLoopTrips = 24;
        cfg.fpFraction = 0.40;
        cfg.indirectFraction = 0.06;
        cfg.dispatcherFanout = 72;
        cfg.dispatcherLoopTrips = 12;
        cfg.maxCalleeCost = 8000.0;
        cfg.moduleCount = 2;
    } else if (category == "srv") {
        // Server-class: multi-MB footprint, deep call chains, low reuse.
        cfg.numFunctions = 4100;
        cfg.minBlocksPerFunction = 4;
        cfg.maxBlocksPerFunction = 12;
        cfg.minBlockInsts = 2;
        cfg.maxBlockInsts = 14;
        cfg.condBlockFraction = 0.32;
        cfg.callBlockFraction = 0.30;
        cfg.jumpBlockFraction = 0.08;
        cfg.indirectFraction = 0.20;
        cfg.loopFraction = 0.12;
        cfg.minLoopTrips = 2;
        cfg.maxLoopTrips = 8;
        cfg.callLocality = 0.6;
        cfg.dispatcherFanout = 48;
        cfg.dispatcherEvery = 25;
        cfg.dispatcherLoopTrips = 4;
        cfg.maxCalleeCost = 900.0;
        cfg.moduleCount = 12;
    } else {
        EIP_FATAL("unknown workload category");
    }
    return cfg;
}

bool
qualifies(const Workload &workload, uint64_t *footprint_bytes)
{
    std::optional<Program> program;
    if (workload.kind == WorkloadKind::Synthetic)
        program.emplace(buildProgram(workload.program));
    std::unique_ptr<InstructionSource> stream =
        makeTraceSource(workload, program ? &*program : nullptr)->open();
    std::unordered_set<uint64_t> lines;
    for (uint64_t i = 0; i < kQualifyWindow; ++i)
        lines.insert(stream->next().pc >> 6);
    const uint64_t footprint = lines.size() * 64;
    if (footprint_bytes != nullptr)
        *footprint_bytes = footprint;
    return footprint >= kQualifyFootprintBytes;
}

const CvpPin kCvpPins[4] = {
    {"crypto", {1, 4, 5}},
    {"int", {1, 2, 3}},
    {"fp", {1, 3, 5}},
    {"srv", {1, 2, 3}},
};

Workload
cvpCandidate(const std::string &category, int index)
{
    Workload w;
    w.category = category;
    w.program = categoryConfig(category);
    w.program.seed = 0x1000 * index + category.size();
    w.exec.seed = 0x77 + index - 1;
    return w;
}

std::vector<Workload>
cvpSuite(int seeds_per_category)
{
    const int pinned = static_cast<int>(std::size(kCvpPins[0].candidates));
    EIP_ASSERT(seeds_per_category >= 1 && seeds_per_category <= pinned,
               "cvpSuite pins 1 to 3 seeds per category");
    std::vector<Workload> suite;
    for (const CvpPin &pin : kCvpPins) {
        for (int k = 0; k < seeds_per_category; ++k) {
            Workload w = cvpCandidate(pin.category, pin.candidates[k]);
            w.name = std::string(pin.category) + "-" + std::to_string(k + 1);
            suite.push_back(std::move(w));
        }
    }
    return suite;
}

std::vector<Workload>
cloudSuite()
{
    std::vector<Workload> suite;

    // cassandra: Java data store — very large footprint, deep calls.
    {
        Workload w;
        w.name = "cassandra";
        w.category = "cloud";
        w.program = categoryConfig("srv");
        w.program.numFunctions = 4200;
        w.program.callBlockFraction = 0.32;
        w.program.indirectFraction = 0.12; // virtual dispatch
        w.program.seed = 0xCA55;
        w.exec.seed = 0xCA55;
        suite.push_back(std::move(w));
    }
    // cloud9: JS engine — indirect-heavy medium-large footprint.
    {
        Workload w;
        w.name = "cloud9";
        w.category = "cloud";
        w.program = categoryConfig("srv");
        w.program.numFunctions = 2600;
        w.program.indirectFraction = 0.18;
        w.program.jumpBlockFraction = 0.12;
        w.program.seed = 0xC109;
        w.exec.seed = 0xC109;
        suite.push_back(std::move(w));
    }
    // nutch: crawler/indexer — large footprint, mixed loops and calls.
    {
        Workload w;
        w.name = "nutch";
        w.category = "cloud";
        w.program = categoryConfig("srv");
        w.program.numFunctions = 3600;
        w.program.loopFraction = 0.2;
        w.program.maxLoopTrips = 16;
        w.program.seed = 0x0706;
        w.exec.seed = 0x0706;
        suite.push_back(std::move(w));
    }
    // streaming: media server — streaming loops over a large code base.
    {
        Workload w;
        w.name = "streaming";
        w.category = "cloud";
        w.program = categoryConfig("srv");
        w.program.numFunctions = 2000;
        w.program.loopFraction = 0.35;
        w.program.minLoopTrips = 8;
        w.program.maxLoopTrips = 64;
        w.program.minBlockInsts = 4;
        w.program.maxBlockInsts = 18;
        w.program.seed = 0x57AE;
        w.exec.seed = 0x57AE;
        suite.push_back(std::move(w));
    }
    return suite;
}

Workload
tinyWorkload(uint64_t seed)
{
    Workload w;
    w.name = "tiny";
    w.category = "int";
    w.program = categoryConfig("int");
    w.program.numFunctions = 120;
    w.program.seed = seed;
    w.exec.seed = seed * 31 + 7;
    return w;
}

namespace {

bool
endsWith(const std::string &s, const char *suffix)
{
    const size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** FNV-1a over the stored file bytes, chunked so multi-GB traces never
 *  need to fit in memory. Returns false (with @p error set) on I/O error. */
bool
digestFile(const std::string &path, uint64_t &bytes_out,
           std::string &digest_out, std::string *error)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file) {
        if (error)
            *error = "cannot open trace file: " + path;
        return false;
    }
    uint64_t hash = util::kFnvOffsetBasis;
    uint64_t bytes = 0;
    char chunk[64 * 1024];
    size_t got;
    while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
        hash = util::fnv1a64(std::string_view(chunk, got), hash);
        bytes += got;
    }
    const bool failed = std::ferror(file) != 0;
    std::fclose(file);
    if (failed) {
        if (error)
            *error = "read error while digesting trace file: " + path;
        return false;
    }
    if (bytes == 0) {
        if (error)
            *error = "trace file is empty: " + path;
        return false;
    }
    bytes_out = bytes;
    digest_out = util::hex64(hash);
    return true;
}

} // namespace

bool
isTracePath(const std::string &path)
{
    return endsWith(path, ".trc") || endsWith(path, ".champsimtrace") ||
           endsWith(path, ".champsimtrace.xz") ||
           endsWith(path, ".champsimtrace.gz");
}

WorkloadKind
kindFromTracePath(const std::string &path)
{
    EIP_ASSERT(isTracePath(path), "not a recognized trace path");
    return endsWith(path, ".trc") ? WorkloadKind::EipTrace
                                  : WorkloadKind::ChampSim;
}

bool
tryTraceWorkload(const std::string &path, Workload &out, std::string *error)
{
    if (!isTracePath(path)) {
        if (error)
            *error = "unsupported trace extension (want .trc, .champsimtrace"
                     "[.xz|.gz]): " +
                     path;
        return false;
    }
    Workload w;
    if (!digestFile(path, w.traceBytes, w.traceDigest, error))
        return false;
    const size_t slash = path.find_last_of("/\\");
    w.name = slash == std::string::npos ? path : path.substr(slash + 1);
    w.category = "trace";
    w.kind = kindFromTracePath(path);
    w.tracePath = path;
    out = std::move(w);
    return true;
}

Workload
traceWorkload(const std::string &path)
{
    Workload w;
    std::string error;
    if (!tryTraceWorkload(path, w, &error))
        EIP_FATAL(error.c_str());
    return w;
}

Workload
capturedWorkload(const Workload &origin, const std::string &path)
{
    Workload w = origin;
    w.kind = WorkloadKind::EipTrace;
    w.tracePath = path;
    std::string error;
    if (!digestFile(path, w.traceBytes, w.traceDigest, &error))
        EIP_FATAL(error.c_str());
    return w;
}

} // namespace eip::trace
