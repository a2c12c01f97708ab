#include "sample/sampled.hh"

#include "obs/phase.hh"
#include "util/panic.hh"

namespace eip::sample {

namespace {

/** The scalars of one detailed window — the inputs of the four
 *  estimated metrics — as the difference of the snapshots around it. */
sim::SimStats
windowDelta(const sim::SimStats &before, const sim::SimStats &after)
{
    sim::SimStats w;
    w.instructions = after.instructions - before.instructions;
    w.cycles = after.cycles - before.cycles;
    w.l1i.demandMisses = after.l1i.demandMisses - before.l1i.demandMisses;
    w.l1i.usefulPrefetches =
        after.l1i.usefulPrefetches - before.l1i.usefulPrefetches;
    w.l1i.latePrefetches =
        after.l1i.latePrefetches - before.l1i.latePrefetches;
    w.l1i.prefetchIssued =
        after.l1i.prefetchIssued - before.l1i.prefetchIssued;
    return w;
}

} // namespace

SampledResult
runSampled(sim::Cpu &cpu, trace::InstructionSource &trace,
           uint64_t instructions, uint64_t warmup, const SampleSpec &spec,
           obs::PhaseProfiler *profiler)
{
    EIP_ASSERT(spec.mode == Mode::Periodic,
               "runSampled requires a periodic sampling spec");
    const std::vector<Phase> schedule = buildSchedule(spec, instructions);
    EIP_ASSERT(!schedule.empty(), "periodic schedule produced no windows");

    Welford ipc;
    Welford mpki;
    Welford coverage;
    Welford accuracy;

    SampledResult result;
    result.summary.offset = scheduleOffset(spec);

    // The warm-up phase is functional too: a timed warm-up would cap the
    // host speedup near 2x regardless of the window fraction, and the
    // structures it exists to train are exactly the ones warming trains.
    if (warmup > 0) {
        if (profiler != nullptr)
            profiler->transition("warming");
        cpu.warmFunctional(trace, warmup);
        result.summary.warmedInstructions += warmup;
    }

    // The warm clock runs at the CPI of the most recent detailed window
    // (1:1 until one exists) so warm MSHR occupancy spans realistic
    // instruction distances — see Cpu::warmFunctional.
    uint64_t cpi_cycles = 1;
    uint64_t cpi_instructions = 1;

    // Statistics reset once: warming freezes them between windows, so
    // the cumulative counters are the sum over the detailed windows.
    bool first = true;
    for (const Phase &phase : schedule) {
        if (phase.skip > 0) {
            // Source-level fast-forward: nothing in the simulator observes
            // the skipped region, so the clock, stats and every trained
            // structure stay frozen across it.
            if (profiler != nullptr)
                profiler->transition("fast_forward");
            trace.skip(phase.skip);
            result.summary.skippedInstructions += phase.skip;
        }
        if (phase.warm > 0) {
            if (profiler != nullptr)
                profiler->transition("warming");
            cpu.warmFunctional(trace, phase.warm, cpi_cycles,
                               cpi_instructions);
            result.summary.warmedInstructions += phase.warm;
        }
        if (first) {
            cpu.resetMeasurement();
            first = false;
        }
        if (profiler != nullptr)
            profiler->transition("window");
        const sim::SimStats before = cpu.snapshot();
        cpu.advance(trace, phase.window);
        const sim::SimStats w = windowDelta(before, cpu.snapshot());
        if (w.cycles > 0 && w.instructions > 0) {
            cpi_cycles = w.cycles;
            cpi_instructions = w.instructions;
        }
        ipc.add(w.ipc());
        mpki.add(w.l1iMpki());
        coverage.add(w.l1i.coverage());
        accuracy.add(w.l1i.accuracy());
        ++result.summary.windows;
        result.summary.windowInstructions += w.instructions;
    }

    if (profiler != nullptr)
        profiler->transition("fill_drain");

    result.summary.ipc = summarize(ipc);
    result.summary.l1iMpki = summarize(mpki);
    result.summary.l1iCoverage = summarize(coverage);
    result.summary.l1iAccuracy = summarize(accuracy);
    result.stats = cpu.snapshot();
    return result;
}

} // namespace eip::sample
