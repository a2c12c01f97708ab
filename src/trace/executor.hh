/**
 * @file
 * Trace executor: walks a synthetic Program's CFG and produces the dynamic
 * instruction stream consumed by the simulated core. The stream is infinite
 * (when main returns, execution restarts at its entry — a driver loop), so
 * the caller decides the instruction budget.
 */

#ifndef EIP_TRACE_EXECUTOR_HH
#define EIP_TRACE_EXECUTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/instruction.hh"
#include "trace/program.hh"
#include "util/rng.hh"

namespace eip::trace {

/** Runtime knobs of the executor. */
struct ExecutorConfig
{
    uint64_t seed = 7;
    uint32_t maxCallDepth = 24;   ///< calls beyond this depth are elided
    uint64_t stackBase = 0x7fff'ffff'0000ULL;
    uint64_t frameBytes = 256;
    uint64_t globalBase = 0x10'0000'0000ULL;
    uint64_t dataFootprintBytes = 640ULL << 10;
};

/**
 * Deterministic CFG walker. Identical (program, config) pairs yield
 * bit-identical instruction streams.
 *
 * The Program is shared and immutable; the executor holds only mutable
 * state, kept in one flat array indexed by the dense site ids the builder
 * assigned (Block::siteBase).
 */
class Executor : public InstructionSource
{
  public:
    Executor(const Program &program, const ExecutorConfig &cfg);

    /** Produce the next dynamic instruction. Never fails. */
    const Instruction &next() override;

    /** Fast-forward a block at a time: a fully covered body only replays
     *  its RNG draws and stream-cursor updates (see skipBody). */
    void skip(uint64_t n) override;

    /** Dynamic instructions emitted or skipped so far. */
    uint64_t emitted() const { return emittedCount; }

    /** Current call depth (for tests). */
    size_t callDepth() const { return stack.size(); }

  private:
    struct Frame
    {
        uint32_t func;
        uint32_t resumeBlock; ///< caller block to resume at after return
    };

    void advanceToBlock(uint32_t func, uint32_t block);
    /** One instruction: the next body instruction or the terminator.
     *  With Emit false nothing is written to `out`, but every RNG draw
     *  and state update still happens. */
    template <bool Emit> void step();
    template <bool Emit> void stepTerminator();
    /** Set `out`'s branch fields; the target is the entered block. */
    template <bool Emit> void recordBranch(BranchType type, bool taken);
    /** Step over @p blk's whole body (bodyPos 0) without visiting it. */
    void skipBody(const Block &blk);
    uint64_t dataAddress(const StaticInst &inst, uint64_t pc);
    /** Advance the next Stream site's cursor (the site at @p pc with
     *  @p stride); returns the accessed address. */
    uint64_t stepStream(uint64_t pc, uint16_t stride);
    bool loopTaken(const Block &blk);
    uint32_t dispatchCallee(const Block &blk);

    const Program &prog;
    ExecutorConfig config;
    Rng rng;

    uint32_t curFunc = 0;
    const Block *cur = nullptr;
    /** Position inside the current block's body; equal to body size when
     *  the terminator is next. */
    size_t bodyPos = 0;
    uint64_t bodyPc = 0;
    uint32_t nextSite = 0; ///< site id of the body's next Stream site

    std::vector<Frame> stack;
    /**
     * Mutable state per site id. A Stream site holds its cursor (0 until
     * first touched), a loop back-edge its remaining taken trips plus one
     * (0 outside the loop), a wide dispatch site its position in the
     * callee list.
     */
    std::vector<uint64_t> siteState;

    Instruction out;
    uint64_t emittedCount = 0;
};

} // namespace eip::trace

#endif // EIP_TRACE_EXECUTOR_HH
