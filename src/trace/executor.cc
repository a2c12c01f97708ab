#include "trace/executor.hh"

#include "util/panic.hh"

namespace eip::trace {

Executor::Executor(const Program &program, const ExecutorConfig &cfg)
    : prog(program), config(cfg), rng(cfg.seed),
      siteState(program.sites, 0)
{
    EIP_ASSERT(!prog.functions.empty(), "cannot execute an empty program");
    advanceToBlock(0, 0);
}

void
Executor::advanceToBlock(uint32_t func, uint32_t block)
{
    curFunc = func;
    cur = &prog.functions[func].blocks[block];
    bodyPos = 0;
    bodyPc = cur->startPc;
    nextSite = cur->siteBase;
}

uint64_t
Executor::stepStream(uint64_t pc, uint16_t stride)
{
    // Constant-stride stream, private to this instruction site.
    uint64_t &cursor = siteState[nextSite++];
    if (cursor == 0)
        cursor = config.globalBase + (pc % config.dataFootprintBytes);
    cursor += stride;
    if (cursor > config.globalBase + 2 * config.dataFootprintBytes)
        cursor = config.globalBase + (pc % config.dataFootprintBytes);
    return cursor;
}

uint64_t
Executor::dataAddress(const StaticInst &inst, uint64_t pc)
{
    switch (inst.memPattern) {
      case MemPattern::Stack: {
        // A fixed frame slot (a local variable of this function).
        uint64_t frame_top =
            config.stackBase - stack.size() * config.frameBytes;
        return frame_top - inst.memParam;
      }
      case MemPattern::Stream:
        return stepStream(pc, inst.memParam);
      case MemPattern::Global:
      default:
        // Hot-skewed reuse over the shared data footprint.
        return config.globalBase +
               (rng.skewedBelow(config.dataFootprintBytes) & ~uint64_t{7});
    }
}

void
Executor::skipBody(const Block &blk)
{
    // Each Global access draws once (skewedBelow draws nothing over a
    // footprint of at most one byte); Stack accesses touch no state.
    if (config.dataFootprintBytes > 1) {
        for (uint32_t i = 0; i < blk.bodyDraws; ++i)
            rng.next();
    }
    if (blk.bodyStreams > 0) {
        uint64_t pc = blk.startPc;
        for (const StaticInst &inst : blk.body) {
            if (inst.isStreamSite())
                stepStream(pc, inst.memParam);
            pc += inst.size;
        }
    }
    bodyPos = blk.body.size();
    bodyPc = blk.termPc();
}

bool
Executor::loopTaken(const Block &blk)
{
    // Loop back-edge with a drawn trip count per loop entry. The state is
    // the remaining taken trips plus one, so 0 means "not in the loop".
    uint64_t &state = siteState[blk.termSiteId()];
    if (state == 0)
        state = 2 + rng.below(2 * blk.loopTripCount);
    if (state > 1) {
        --state;
        return true;
    }
    state = 0;
    return false;
}

uint32_t
Executor::dispatchCallee(const Block &blk)
{
    // Wide dispatch site (event loop). Real servers show strong
    // request-type locality: handlers are processed in mostly cyclic runs
    // with occasional jumps, so long control-flow sequences recur — the
    // property correlation prefetchers rely on. Model: advance through
    // the candidate list with high probability, sometimes repeat, rarely
    // jump at random.
    uint64_t &pos = siteState[blk.termSiteId()];
    double u = rng.uniform();
    if (u < 0.80)
        pos = (pos + 1) % blk.callees.size();
    else if (u < 0.92)
        ; // repeat the same handler (a burst of one request type)
    else
        pos = rng.below(blk.callees.size());
    return blk.callees[pos];
}

template <bool Emit>
void
Executor::recordBranch(BranchType type, bool taken)
{
    if constexpr (Emit) {
        out.branch = type;
        out.taken = taken;
        out.target = taken ? bodyPc : 0;
    }
}

template <bool Emit>
void
Executor::stepTerminator()
{
    const Block &blk = *cur;
    if constexpr (Emit) {
        out = Instruction{};
        out.pc = bodyPc;
        out.size = blk.termSize;
    }

    switch (blk.term) {
      case TerminatorKind::FallThrough:
        // Plain ALU op; control continues into the next block.
        advanceToBlock(curFunc, blk.fallBlock);
        return;
      case TerminatorKind::CondBranch: {
        bool taken = blk.isLoopSite() ? loopTaken(blk)
                                      : rng.chance(blk.takenProb);
        advanceToBlock(curFunc, taken ? blk.takenBlock : blk.fallBlock);
        recordBranch<Emit>(BranchType::Conditional, taken);
        return;
      }
      case TerminatorKind::Jump:
        advanceToBlock(curFunc, blk.takenBlock);
        recordBranch<Emit>(BranchType::DirectJump, true);
        return;
      case TerminatorKind::IndirectJump: {
        uint32_t idx = static_cast<uint32_t>(
            rng.skewedBelow(blk.indirectTargets.size()));
        advanceToBlock(curFunc, blk.indirectTargets[idx]);
        recordBranch<Emit>(BranchType::IndirectJump, true);
        return;
      }
      case TerminatorKind::Call:
      case TerminatorKind::IndirectCall: {
        uint32_t callee;
        if (blk.term == TerminatorKind::Call) {
            callee = blk.callees.front();
        } else if (blk.isWideDispatch()) {
            callee = dispatchCallee(blk);
        } else {
            // Small virtual-dispatch site: skewed towards a hot target.
            uint32_t idx = static_cast<uint32_t>(
                rng.skewedBelow(blk.callees.size()));
            callee = blk.callees[idx];
        }
        bool elide = stack.size() >= config.maxCallDepth ||
                     callee == curFunc;
        if (elide) {
            // Depth guard: execute as a plain instruction.
            advanceToBlock(curFunc, blk.fallBlock);
            return;
        }
        stack.push_back(Frame{curFunc, blk.fallBlock});
        advanceToBlock(callee, 0);
        recordBranch<Emit>(blk.term == TerminatorKind::Call
                               ? BranchType::DirectCall
                               : BranchType::IndirectCall,
                           true);
        return;
      }
      case TerminatorKind::Return: {
        if (stack.empty()) {
            // Driver loop: restart main.
            advanceToBlock(0, 0);
        } else {
            Frame frame = stack.back();
            stack.pop_back();
            advanceToBlock(frame.func, frame.resumeBlock);
        }
        recordBranch<Emit>(BranchType::Return, true);
        return;
      }
    }
    EIP_PANIC("unhandled terminator kind");
}

template <bool Emit>
void
Executor::step()
{
    const Block &blk = *cur;
    if (bodyPos == blk.body.size()) {
        stepTerminator<Emit>();
        return;
    }
    const StaticInst &inst = blk.body[bodyPos++];
    if constexpr (Emit) {
        out = Instruction{};
        out.pc = bodyPc;
        out.size = inst.size;
        out.isLoad = inst.kind == InstKind::Load;
        out.isStore = inst.kind == InstKind::Store;
        out.isFp = inst.kind == InstKind::FpAlu;
        if (inst.isMemory())
            out.memAddr = dataAddress(inst, bodyPc);
    } else if (inst.isMemory()) {
        dataAddress(inst, bodyPc);
    }
    bodyPc += inst.size;
}

const Instruction &
Executor::next()
{
    step<true>();
    ++emittedCount;
    return out;
}

void
Executor::skip(uint64_t n)
{
    emittedCount += n;
    while (n > 0) {
        const Block &blk = *cur;
        const uint64_t body = blk.body.size();
        if (bodyPos == 0 && body > 0 && n >= body) {
            skipBody(blk);
            n -= body;
        } else {
            // Window edges and terminators: one instruction at a time.
            step<false>();
            --n;
        }
    }
}

} // namespace eip::trace
