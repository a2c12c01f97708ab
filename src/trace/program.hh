/**
 * @file
 * Static representation of a synthetic program: a collection of functions,
 * each a control-flow graph of basic blocks laid out at concrete virtual
 * addresses. Built by ProgramBuilder, executed by Executor.
 */

#ifndef EIP_TRACE_PROGRAM_HH
#define EIP_TRACE_PROGRAM_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/instruction.hh"

namespace eip::trace {

/** Static instruction kinds inside a basic block body. */
enum class InstKind : uint8_t
{
    Alu,
    FpAlu,
    Load,
    Store,
    Nop,
};

/** Data-access behaviour of a static load/store (fixed per site, as in
 *  real code: a given instruction mostly touches one kind of data). */
enum class MemPattern : uint8_t
{
    Stack,  ///< fixed frame-relative slot (a local variable)
    Global, ///< heap/global with hot-skewed random reuse
    Stream, ///< constant-stride streaming
};

/** A non-terminator instruction of a basic block. */
struct StaticInst
{
    InstKind kind = InstKind::Alu;
    uint8_t size = 4;
    MemPattern memPattern = MemPattern::Global;
    uint16_t memParam = 0; ///< stack slot offset or stream stride (bytes)

    bool
    isMemory() const
    {
        return kind == InstKind::Load || kind == InstKind::Store;
    }

    /** A load/store with private per-site state (its stream cursor). */
    bool
    isStreamSite() const
    {
        return isMemory() && memPattern == MemPattern::Stream;
    }
};

/** How a basic block transfers control. */
enum class TerminatorKind : uint8_t
{
    FallThrough,   ///< no branch; control continues to the next block
    CondBranch,    ///< conditional branch: takenTarget / fall-through
    Jump,          ///< unconditional direct jump to takenTarget
    IndirectJump,  ///< indirect jump: one of indirectTargets
    Call,          ///< direct call to callee function, then fall-through
    IndirectCall,  ///< indirect call: one of the callee candidates
    Return,        ///< return to caller
};

/** Callee count from which an IndirectCall is a wide dispatch site (a
 *  server event loop) rather than a small virtual-dispatch site. */
inline constexpr size_t kWideDispatchFanout = 8;

/**
 * A basic block: straight-line instructions plus one terminator. Blocks are
 * identified by (function index, block index); the builder assigns concrete
 * PCs after CFG construction.
 *
 * The builder also records static facts at layout (bodyBytes, bodyDraws,
 * bodyStreams, siteBase) so the executor can step over a whole body
 * without visiting its instructions. They sit in what would otherwise be
 * alignment padding: every catalogue program is resident at once in the
 * shared program cache, so a wider Block costs memory in every process.
 */
struct Block
{
    uint64_t startPc = 0;        ///< PC of the first instruction
    std::vector<StaticInst> body;

    TerminatorKind term = TerminatorKind::FallThrough;
    uint8_t termSize = 4;        ///< byte size of the terminator instruction
    /** Global loads/stores in the body: one RNG draw each per pass. */
    uint16_t bodyDraws = 0;

    /** Successor block index (within function) for taken branches/jumps. */
    uint32_t takenBlock = 0;
    /** Fall-through successor block index (CondBranch/FallThrough/Call). */
    uint32_t fallBlock = 0;
    uint16_t bodyBytes = 0;      ///< summed size of the body instructions
    uint16_t bodyStreams = 0;    ///< Stream sites in the body
    /** Probability that a CondBranch is taken. */
    double takenProb = 0.5;
    /**
     * For back-edges modelling loops: expected extra iterations. When > 0,
     * the executor draws a trip count on loop entry instead of flipping a
     * coin per visit, giving realistic loop behaviour.
     */
    uint32_t loopTripCount = 0;
    /**
     * First dense id of this block's stateful sites (Program::sites): its
     * Stream sites in body order, then its terminator if that is a loop
     * back-edge or a wide dispatch site (termSiteId).
     */
    uint32_t siteBase = 0;

    /** Callee function indices (1 for Call; several for IndirectCall). */
    std::vector<uint32_t> callees;
    /** Candidate target blocks for IndirectJump (within function). */
    std::vector<uint32_t> indirectTargets;

    /** A CondBranch whose trip count is drawn on loop entry. */
    bool
    isLoopSite() const
    {
        return term == TerminatorKind::CondBranch && loopTripCount > 0;
    }

    /** An IndirectCall that walks its callees in mostly-cyclic order. */
    bool
    isWideDispatch() const
    {
        return term == TerminatorKind::IndirectCall &&
               callees.size() >= kWideDispatchFanout;
    }

    /** Site id of a loop back-edge or wide dispatch terminator. */
    uint32_t termSiteId() const { return siteBase + bodyStreams; }

    /** PC of the terminator instruction. */
    uint64_t termPc() const { return startPc + bodyBytes; }

    /** PC of the first byte after this block. */
    uint64_t endPc() const { return termPc() + termSize; }
};

/** A function: an entry block plus a CFG of blocks. */
struct Function
{
    uint64_t entryPc = 0;
    std::vector<Block> blocks; ///< block 0 is the entry
};

/** A whole synthetic program. */
struct Program
{
    std::vector<Function> functions; ///< function 0 is main
    uint64_t codeBase = 0;           ///< lowest code address
    uint64_t codeEnd = 0;            ///< one past the highest code address
    uint64_t codeBytes = 0;          ///< actual instruction bytes laid out
    /** Stateful static sites (Stream loads/stores, loop back-edges, wide
     *  dispatch sites), numbered densely at layout so an executor keeps
     *  their state in one flat array. */
    uint32_t sites = 0;

    /** Static code footprint (bytes of instructions, across modules). */
    uint64_t footprintBytes() const { return codeBytes; }
};

} // namespace eip::trace

#endif // EIP_TRACE_PROGRAM_HH
