#include "trace/program_builder.hh"

#include <algorithm>
#include <vector>

#include "util/panic.hh"
#include "util/rng.hh"

namespace eip::trace {

namespace {

/** Pick a body instruction (kind plus per-site data-access behaviour). */
StaticInst
pickInst(const ProgramConfig &cfg, Rng &rng)
{
    StaticInst inst;
    inst.size = 4;
    double u = rng.uniform();
    if (u < cfg.loadFraction) {
        inst.kind = InstKind::Load;
    } else if (u < cfg.loadFraction + cfg.storeFraction) {
        inst.kind = InstKind::Store;
    } else if (u < cfg.loadFraction + cfg.storeFraction + cfg.fpFraction) {
        inst.kind = InstKind::FpAlu;
    } else {
        inst.kind = InstKind::Alu;
    }
    if (inst.kind == InstKind::Load || inst.kind == InstKind::Store) {
        double m = rng.uniform();
        if (m < 0.5) {
            inst.memPattern = MemPattern::Stack;
            inst.memParam = static_cast<uint16_t>(rng.below(240) & ~7u);
        } else if (m < 0.8) {
            inst.memPattern = MemPattern::Global;
        } else {
            inst.memPattern = MemPattern::Stream;
            // Stride of 1..3 cache lines, fixed for this site.
            inst.memParam = static_cast<uint16_t>(64 * rng.between(1, 3));
        }
    }
    return inst;
}

/**
 * Builder context. Functions are constructed leaves-first (highest index
 * first) so that every call site can filter its callees by the estimated
 * dynamic cost of the callee's whole subtree. This keeps request-processing
 * call trees bounded — the property that makes the synthetic trace cycle
 * through its code footprint instead of drowning in one deep walk.
 */
struct Builder
{
    const ProgramConfig &cfg;
    Rng rng;
    /** Estimated dynamic instructions per invocation, including callees. */
    std::vector<double> dynCost;
    std::vector<bool> isDispatcher;

    explicit Builder(const ProgramConfig &config)
        : cfg(config), rng(config.seed),
          dynCost(config.numFunctions, 0.0),
          isDispatcher(config.numFunctions, false)
    {}

    /**
     * Pick a callee for @p caller: an already-built (higher-index) regular
     * function whose subtree cost fits the budget. Returns numFunctions
     * when no suitable callee exists (the call site is then dropped).
     */
    uint32_t
    pickCallee(uint32_t caller)
    {
        uint32_t n = cfg.numFunctions;
        if (caller + 1 >= n)
            return n;
        uint32_t span = n - caller - 1;
        for (int attempt = 0; attempt < 16; ++attempt) {
            uint64_t offset;
            if (rng.chance(cfg.callLocality))
                offset = rng.skewedBelow(std::min<uint64_t>(span, 32)) + 1;
            else
                offset = rng.below(span) + 1;
            uint32_t cand = caller + static_cast<uint32_t>(offset);
            if (!isDispatcher[cand] && dynCost[cand] <= cfg.maxCalleeCost)
                return cand;
        }
        return n;
    }

    /** Mostly-biased branch probability: recurring paths with a data-
     *  dependent minority (bimodal distribution). */
    double
    branchProbability()
    {
        if (rng.chance(cfg.biasedBranchFraction))
            return rng.chance(0.5) ? 0.05 : 0.95;
        return 0.3 + rng.uniform() * 0.4;
    }

    Function buildRegular(uint32_t func_idx);
    Function buildDispatcher(uint32_t func_idx, bool top_level);
    double estimateCost(const Function &fn) const;
};

Function
Builder::buildRegular(uint32_t func_idx)
{
    Function fn;
    uint32_t num_blocks = static_cast<uint32_t>(
        rng.between(cfg.minBlocksPerFunction, cfg.maxBlocksPerFunction));
    fn.blocks.resize(num_blocks);

    for (uint32_t b = 0; b < num_blocks; ++b) {
        Block &blk = fn.blocks[b];
        uint32_t body_len = static_cast<uint32_t>(
            rng.between(cfg.minBlockInsts, cfg.maxBlockInsts));
        blk.body.reserve(body_len);
        for (uint32_t i = 0; i < body_len; ++i)
            blk.body.push_back(pickInst(cfg, rng));

        if (b == num_blocks - 1) {
            blk.term = TerminatorKind::Return;
            continue;
        }
        blk.fallBlock = b + 1;

        double u = rng.uniform();
        if (u < cfg.condBlockFraction) {
            blk.term = TerminatorKind::CondBranch;
            bool want_loop = b > 0 && rng.chance(cfg.loopFraction);
            if (want_loop) {
                // Loop back-edge over up to 3 blocks, never wrapping a call
                // site: hot inner loops are call-free, and looping over
                // calls would multiply the call-tree cost unboundedly.
                uint32_t back = static_cast<uint32_t>(
                    rng.between(1, std::min(b, 3u)));
                for (uint32_t p = b - back; p < b && want_loop; ++p) {
                    TerminatorKind t = fn.blocks[p].term;
                    if (t == TerminatorKind::Call ||
                        t == TerminatorKind::IndirectCall) {
                        want_loop = false;
                    }
                }
                if (want_loop) {
                    blk.takenBlock = b - back;
                    blk.loopTripCount = static_cast<uint32_t>(
                        rng.between(cfg.minLoopTrips, cfg.maxLoopTrips));
                }
            }
            if (!want_loop) {
                // Forward branch, skewed towards nearby targets.
                uint32_t span = num_blocks - 1 - b;
                uint32_t off = static_cast<uint32_t>(
                    rng.skewedBelow(std::min(span, 6u))) + 1;
                blk.takenBlock = std::min(b + off, num_blocks - 1);
                blk.takenProb = branchProbability();
            }
        } else if (u < cfg.condBlockFraction + cfg.callBlockFraction) {
            bool indirect = rng.chance(cfg.indirectFraction);
            uint32_t num_callees = indirect
                ? static_cast<uint32_t>(rng.between(2, 4)) : 1;
            for (uint32_t c = 0; c < num_callees; ++c) {
                uint32_t callee = pickCallee(func_idx);
                if (callee < cfg.numFunctions)
                    blk.callees.push_back(callee);
            }
            if (blk.callees.empty()) {
                blk.term = TerminatorKind::FallThrough; // no viable callee
            } else {
                blk.term = blk.callees.size() > 1
                    ? TerminatorKind::IndirectCall : TerminatorKind::Call;
            }
        } else if (u < cfg.condBlockFraction + cfg.callBlockFraction +
                           cfg.jumpBlockFraction) {
            if (rng.chance(cfg.indirectFraction)) {
                blk.term = TerminatorKind::IndirectJump;
                uint32_t num_targets =
                    static_cast<uint32_t>(rng.between(2, 4));
                for (uint32_t t = 0; t < num_targets; ++t) {
                    uint32_t span = num_blocks - 1 - b;
                    uint32_t off = static_cast<uint32_t>(
                        rng.below(std::min(span, 8u))) + 1;
                    blk.indirectTargets.push_back(
                        std::min(b + off, num_blocks - 1));
                }
            } else {
                blk.term = TerminatorKind::Jump;
                uint32_t span = num_blocks - 1 - b;
                uint32_t off = static_cast<uint32_t>(
                    rng.skewedBelow(std::min(span, 4u))) + 1;
                blk.takenBlock = std::min(b + off, num_blocks - 1);
            }
        } else {
            blk.term = TerminatorKind::FallThrough;
        }
    }
    return fn;
}

Function
Builder::buildDispatcher(uint32_t func_idx, bool top_level)
{
    Function fn;
    fn.blocks.resize(3);

    // Block 0: loop body ending in the dispatching indirect call.
    Block &dispatch = fn.blocks[0];
    uint32_t body_len = static_cast<uint32_t>(
        rng.between(cfg.minBlockInsts, cfg.maxBlockInsts));
    for (uint32_t i = 0; i < body_len; ++i)
        dispatch.body.push_back(pickInst(cfg, rng));
    dispatch.term = TerminatorKind::IndirectCall;
    dispatch.fallBlock = 1;

    uint32_t n = cfg.numFunctions;
    if (top_level) {
        // main: dispatch over the sub-dispatchers (if any), plus a spread
        // of regular handlers — this is the outer server loop.
        if (cfg.dispatcherEvery != 0) {
            for (uint32_t d = cfg.dispatcherEvery; d < n;
                 d += cfg.dispatcherEvery) {
                dispatch.callees.push_back(d);
            }
        }
        uint32_t want = std::max<uint32_t>(cfg.dispatcherFanout, 1);
        for (uint32_t c = 0; n > 1 && dispatch.callees.size() < want &&
                             c < n; ++c) {
            uint32_t cand = 1 + static_cast<uint32_t>(rng.below(n - 1));
            if (!isDispatcher[cand] && dynCost[cand] <= cfg.maxCalleeCost)
                dispatch.callees.push_back(cand);
        }
    } else {
        // Sub-dispatcher: fan out over handlers spread across the space
        // above it.
        uint32_t span = n > func_idx + 1 ? n - func_idx - 1 : 0;
        uint32_t fanout = std::min(cfg.dispatcherFanout, std::max(span, 1u));
        for (uint32_t c = 0; span > 0 && c < fanout; ++c) {
            uint32_t stride = std::max(span / std::max(fanout, 1u), 1u);
            uint32_t cand = func_idx + 1 + (span * c) / fanout +
                static_cast<uint32_t>(rng.below(stride));
            cand = std::min(cand, n - 1);
            if (!isDispatcher[cand] && dynCost[cand] <= cfg.maxCalleeCost)
                dispatch.callees.push_back(cand);
        }
    }
    if (dispatch.callees.empty())
        dispatch.term = TerminatorKind::FallThrough;

    // Block 1: loop back-edge around the dispatch.
    Block &latch = fn.blocks[1];
    latch.body.push_back(StaticInst{InstKind::Alu, 4});
    latch.term = TerminatorKind::CondBranch;
    latch.takenBlock = 0;
    latch.fallBlock = 2;
    latch.loopTripCount = cfg.dispatcherLoopTrips;

    // Block 2: return.
    fn.blocks[2].body.push_back(StaticInst{});
    fn.blocks[2].term = TerminatorKind::Return;
    return fn;
}

double
Builder::estimateCost(const Function &fn) const
{
    // Base: every block once.
    double cost = 0.0;
    std::vector<double> block_cost(fn.blocks.size());
    for (size_t b = 0; b < fn.blocks.size(); ++b) {
        block_cost[b] = static_cast<double>(fn.blocks[b].body.size()) + 1.0;
        cost += block_cost[b];
    }
    // Loops: the spanned blocks run (expected trips) extra times.
    for (size_t b = 0; b < fn.blocks.size(); ++b) {
        const Block &blk = fn.blocks[b];
        if (blk.term == TerminatorKind::CondBranch &&
            blk.loopTripCount > 0) {
            double span_cost = 0.0;
            for (uint32_t p = blk.takenBlock; p <= b; ++p)
                span_cost += block_cost[p];
            cost += span_cost * blk.loopTripCount;
        }
        // Calls: expected callee subtree cost.
        if (!blk.callees.empty()) {
            double sum = 0.0;
            for (uint32_t callee : blk.callees)
                sum += dynCost[callee];
            cost += sum / static_cast<double>(blk.callees.size());
        }
    }
    return cost;
}

/**
 * Record @p blk's static facts: its body length in bytes, the RNG draws of
 * one pass over its body, and dense ids for its stateful sites (its Stream
 * sites in body order, then a loop or wide dispatch terminator).
 */
void
recordStaticFacts(Program &prog, Block &blk)
{
    uint32_t bytes = 0, draws = 0, streams = 0;
    for (const StaticInst &inst : blk.body) {
        bytes += inst.size;
        if (inst.isStreamSite())
            ++streams;
        else if (inst.isMemory() && inst.memPattern == MemPattern::Global)
            ++draws;
    }
    EIP_ASSERT(bytes <= UINT16_MAX, "basic block body exceeds 64 KB");
    blk.bodyBytes = static_cast<uint16_t>(bytes);
    blk.bodyDraws = static_cast<uint16_t>(draws);
    blk.bodyStreams = static_cast<uint16_t>(streams);
    blk.siteBase = prog.sites;
    prog.sites += streams;
    if (blk.isLoopSite() || blk.isWideDispatch())
        ++prog.sites;
}

/** Lay out all blocks of all functions at concrete virtual addresses and
 *  record their static facts. Functions are partitioned into contiguous
 *  index ranges, one per module, so index locality (the common case for
 *  callees) stays within a module and only far calls cross module
 *  boundaries — as in real binaries that call into shared libraries. */
void
assignAddresses(const ProgramConfig &cfg, Program &prog)
{
    uint32_t modules = std::max(cfg.moduleCount, 1u);
    std::vector<uint64_t> cursor(modules);
    for (uint32_t m = 0; m < modules; ++m)
        cursor[m] = cfg.codeBase + m * cfg.moduleStride;

    uint64_t align = cfg.functionAlign ? cfg.functionAlign : 1;
    uint64_t highest = cfg.codeBase;
    size_t total = prog.functions.size();
    for (size_t f = 0; f < total; ++f) {
        Function &fn = prog.functions[f];
        const size_t module = f * modules / total;
        uint64_t &pc = cursor[module];
        pc = (pc + align - 1) / align * align;
        fn.entryPc = pc;
        for (auto &blk : fn.blocks) {
            blk.startPc = pc;
            recordStaticFacts(prog, blk);
            pc = blk.endPc();
        }
        // One instruction per pc: the executor's per-site state and every
        // pc-indexed structure of the simulator rely on it.
        EIP_ASSERT(module + 1 == modules ||
                       pc <= cfg.codeBase + (module + 1) * cfg.moduleStride,
                   "code module overflows into the next; raise moduleStride");
        prog.codeBytes += pc - fn.entryPc;
        pc += cfg.interFunctionPad;
        highest = std::max(highest, pc);
    }
    prog.codeBase = cfg.codeBase;
    prog.codeEnd = highest;
}

} // namespace

Program
buildProgram(const ProgramConfig &cfg)
{
    EIP_ASSERT(cfg.numFunctions >= 1, "program needs at least one function");
    Builder builder(cfg);

    for (uint32_t f = 0; f < cfg.numFunctions; ++f) {
        builder.isDispatcher[f] = f == 0 ||
            (cfg.dispatcherEvery != 0 && f % cfg.dispatcherEvery == 0);
    }

    Program prog;
    prog.functions.resize(cfg.numFunctions);

    // Leaves first: regular functions from the top index down, so every
    // call site can consult the callee's subtree cost.
    for (uint32_t f = cfg.numFunctions; f-- > 0;) {
        if (builder.isDispatcher[f])
            continue;
        prog.functions[f] = builder.buildRegular(f);
        builder.dynCost[f] = builder.estimateCost(prog.functions[f]);
    }
    // Then the sub-dispatchers (they call regular functions above them),
    // then main.
    for (uint32_t f = cfg.numFunctions; f-- > 1;) {
        if (!builder.isDispatcher[f])
            continue;
        prog.functions[f] = builder.buildDispatcher(f, false);
        builder.dynCost[f] = builder.estimateCost(prog.functions[f]);
    }
    prog.functions[0] = builder.buildDispatcher(0, true);

    assignAddresses(cfg, prog);
    return prog;
}

} // namespace eip::trace
