/**
 * @file
 * The traced run: rebuilds each simulation the way harness::runOne
 * does, from public parts (prefetch::makePrefetcher, sim::Cpu,
 * trace::makeTraceSource, sample::runSampled or Cpu::run), with the
 * instruction source and the L1I prefetcher wrapped in pass-through
 * decorators that count every call and time one call in a fixed
 * stride. A clock read on every call inflated a probe run by 50-60%;
 * one in kStride keeps the decorators cheap while the count scales the
 * sampled time up to an estimate of the whole.
 *
 * The decorators are pure observers: the traced statistics must equal
 * the untraced runOne result field for field, and a difference counts
 * as a failed operation.
 */

#include <algorithm>
#include <atomic>
#include <future>
#include <memory>

#include "bench.hh"
#include "exec/program_cache.hh"
#include "exec/thread_pool.hh"
#include "harness/artifacts.hh"
#include "obs/json.hh"
#include "obs/phase.hh"
#include "obs/why.hh"
#include "prefetch/factory.hh"
#include "sample/sampled.hh"
#include "sim/cpu.hh"
#include "trace/source.hh"

namespace eipbench {

using namespace eip;

namespace {

constexpr uint64_t kStride = 64;

/** Cost of one timed bracket (two clock reads), subtracted from every
 *  timed sample so the estimate is of the wrapped call alone. */
double
clockOverheadNs()
{
    static const double overhead = [] {
        std::vector<double> samples;
        for (int i = 0; i < 2001; ++i) {
            auto a = Clock::now();
            auto b = Clock::now();
            samples.push_back(
                std::chrono::duration<double, std::nano>(b - a).count());
        }
        return median(samples);
    }();
    return overhead;
}

/** Counts every call; times the first of every kStride. */
class StrideTimer
{
  public:
    template <typename F>
    decltype(auto)
    operator()(F &&fn)
    {
        if (calls_++ % kStride != 0)
            return fn();
        struct Stamp
        {
            StrideTimer &timer;
            Clock::time_point start = Clock::now();
            ~Stamp()
            {
                timer.sampledNs_ += std::chrono::duration<double, std::nano>(
                                        Clock::now() - start)
                                        .count();
                ++timer.sampled_;
            }
        } stamp{*this};
        return fn();
    }

    uint64_t calls() const { return calls_; }

    /** Estimated seconds over all calls. */
    double
    seconds() const
    {
        if (sampled_ == 0)
            return 0.0;
        double per_call = sampledNs_ / static_cast<double>(sampled_) -
                          clockOverheadNs();
        return std::max(per_call, 0.0) * static_cast<double>(calls_) / 1e9;
    }

  private:
    uint64_t calls_ = 0;
    uint64_t sampled_ = 0;
    double sampledNs_ = 0.0;
};

/** Instruction-source decorator. Besides timing, it logs the next/skip
 *  sequence run-length encoded so the drain replay can repeat it on a
 *  fresh source with no clocks inside. */
class TracedSource : public trace::InstructionSource
{
  public:
    explicit TracedSource(std::unique_ptr<trace::InstructionSource> inner)
        : inner_(std::move(inner))
    {}

    const trace::Instruction &
    next() override
    {
        if (log_.empty() || log_.back().skip)
            log_.push_back({false, 0});
        ++log_.back().count;
        return next_([this]() -> const trace::Instruction & {
            return inner_->next();
        });
    }

    void
    skip(uint64_t n) override
    {
        log_.push_back({true, n});
        skipInsts_ += n;
        inner_->skip(n);
    }

    struct Step
    {
        bool skip = false;
        uint64_t count = 0;
    };

    const StrideTimer &nextTimer() const { return next_; }
    uint64_t skipInsts() const { return skipInsts_; }
    const std::vector<Step> &log() const { return log_; }

  private:
    std::unique_ptr<trace::InstructionSource> inner_;
    StrideTimer next_;
    uint64_t skipInsts_ = 0;
    std::vector<Step> log_;
};

/** L1I prefetcher decorator: forwards every hook and query. */
class TracedPrefetcher : public sim::Prefetcher
{
  public:
    explicit TracedPrefetcher(std::unique_ptr<sim::Prefetcher> inner)
        : inner_(std::move(inner))
    {}

    std::string name() const override { return inner_->name(); }
    uint64_t storageBits() const override { return inner_->storageBits(); }

    void
    registerStats(obs::CounterRegistry &reg) override
    {
        inner_->registerStats(reg);
    }

    void
    registerInvariants(check::Invariants &inv) override
    {
        inner_->registerInvariants(inv);
    }

    void
    attach(sim::Cache &cache) override
    {
        sim::Prefetcher::attach(cache);
        inner_->attach(cache);
    }

    void
    onCacheOperate(const sim::CacheOperateInfo &info) override
    {
        operate([&] { inner_->onCacheOperate(info); });
    }

    void
    onCacheFill(const sim::CacheFillInfo &info) override
    {
        fill([&] { inner_->onCacheFill(info); });
    }

    void
    onPrefetchIssued(sim::Addr line, sim::Cycle cycle) override
    {
        issued([&] { inner_->onPrefetchIssued(line, cycle); });
    }

    void
    onBranch(sim::Addr pc, trace::BranchType type,
             sim::Addr target) override
    {
        branch([&] { inner_->onBranch(pc, type, target); });
    }

    void
    onCycle(sim::Cycle now) override
    {
        cycle([&] { inner_->onCycle(now); });
    }

    bool cycleInert() const override { return inner_->cycleInert(); }

    obs::MissBlame
    blame(sim::Addr line, sim::Addr pc) override
    {
        return inner_->blame(line, pc);
    }

    void enableBlame() override { inner_->enableBlame(); }

    StrideTimer operate, fill, issued, branch, cycle;

  private:
    std::unique_ptr<sim::Prefetcher> inner_;
};

/** Everything one traced simulation leaves behind. */
struct TracedResult
{
    harness::RunResult result;
    std::vector<std::pair<std::string, double>> phaseMs;
    double nextS = 0.0;
    uint64_t nextCalls = 0;
    uint64_t skipInsts = 0;
    std::vector<TracedSource::Step> log;
    bool hasPrefetcher = false;
    /** calls and seconds per hook: operate, fill, issued, branch, cycle */
    uint64_t hookCalls[5] = {};
    double hookS[5] = {};
    double busyS = 0.0;
    double waitS = 0.0;
};

/** runImpl's configuration mapping: cache configurations run with no
 *  prefetcher on a modified L1I. */
std::string
configure(const std::string &config_id, sim::SimConfig &cfg)
{
    if (config_id == "ideal") {
        cfg.l1i.idealHit = true;
        return "none";
    }
    if (config_id == "l1i-64kb") {
        cfg.enlargeL1i(64);
        return "none";
    }
    if (config_id == "l1i-96kb") {
        cfg.enlargeL1i(96);
        return "none";
    }
    return config_id;
}

TracedResult
tracedRun(const harness::RunJob &job, const trace::Program &program)
{
    const harness::RunSpec &spec = job.spec;
    sim::SimConfig cfg;
    cfg.physicalL1I = spec.physicalL1i;
    cfg.eventSkip = spec.eventSkip;
    cfg.modelWrongPath = spec.wrongPath;
    std::string pf_id = configure(spec.configId, cfg);

    std::unique_ptr<TracedPrefetcher> prefetcher;
    if (std::unique_ptr<sim::Prefetcher> inner =
            prefetch::makePrefetcher(pf_id))
        prefetcher = std::make_unique<TracedPrefetcher>(std::move(inner));
    std::unique_ptr<sim::Prefetcher> data_prefetcher =
        prefetch::makePrefetcher(spec.dataPrefetcher);

    sim::Cpu cpu(cfg);
    if (prefetcher != nullptr)
        cpu.attachL1iPrefetcher(prefetcher.get());
    if (data_prefetcher != nullptr)
        cpu.l1d().attachPrefetcher(data_prefetcher.get());

    TracedSource source(
        trace::makeTraceSource(job.workload, &program)->open());
    obs::CounterRegistry registry;
    cpu.registerCounters(registry);
    obs::PhaseProfiler profiler;

    TracedResult out;
    harness::RunResult &result = out.result;
    result.workload = job.workload.name;
    result.category = job.workload.category;
    sample::SampleSpec sample_spec;
    sample::parseMode(spec.sampleMode, &sample_spec.mode);
    if (sample_spec.mode == sample::Mode::Periodic) {
        sample_spec.window = spec.sampleWindow;
        sample_spec.period = spec.samplePeriod;
        sample_spec.seed = spec.sampleSeed;
        sample_spec.warm = spec.sampleWarm;
        sample::SampledResult sampled =
            sample::runSampled(cpu, source, spec.instructions, spec.warmup,
                               sample_spec, &profiler);
        result.stats = sampled.stats;
        result.hasSampling = true;
        result.sampling = sampled.summary;
    } else {
        result.stats = cpu.run(source, spec.instructions, spec.warmup,
                               nullptr, &profiler);
    }
    profiler.close();
    result.counters = registry.dump();
    if (prefetcher != nullptr) {
        result.configName = prefetcher->name();
        result.storageKB =
            static_cast<double>(prefetcher->storageBits()) / 8.0 / 1024.0;
        out.hasPrefetcher = true;
        const StrideTimer *hooks[5] = {
            &prefetcher->operate, &prefetcher->fill, &prefetcher->issued,
            &prefetcher->branch, &prefetcher->cycle};
        for (int h = 0; h < 5; ++h) {
            out.hookCalls[h] = hooks[h]->calls();
            out.hookS[h] = hooks[h]->seconds();
        }
    } else {
        result.configName = spec.configId == "none" ? "no" : spec.configId;
    }

    out.phaseMs = profiler.totalsMs();
    out.nextS = source.nextTimer().seconds();
    out.nextCalls = source.nextTimer().calls();
    out.skipInsts = source.skipInsts();
    out.log = source.log();
    return out;
}

/** Keeps the replayed instructions observable. */
std::atomic<uint64_t> gDrainSink{0};

/** Replays a recorded next/skip sequence on a fresh source, timed as a
 *  whole: what the instruction source costs with nothing around it. */
double
drainSeconds(const harness::RunJob &job, const trace::Program &program,
             const std::vector<TracedSource::Step> &log)
{
    std::unique_ptr<trace::InstructionSource> source =
        trace::makeTraceSource(job.workload, &program)->open();
    uint64_t sink = 0;
    auto start = Clock::now();
    for (const TracedSource::Step &step : log) {
        if (step.skip) {
            source->skip(step.count);
            continue;
        }
        for (uint64_t i = 0; i < step.count; ++i)
            sink += source->next().pc;
    }
    double seconds = secondsSince(start);
    gDrainSink.store(sink, std::memory_order_relaxed);
    return seconds;
}

double
phase(const TracedResult &r, const char *name)
{
    for (const auto &[phase_name, ms] : r.phaseMs)
        if (phase_name == name)
            return ms / 1000.0;
    return 0.0;
}

/** One traced pass: every job on an exec::ThreadPool, each task timed
 *  from outside. Returns the pass wall time. */
double
tracedPass(const std::vector<harness::RunJob> &jobs, unsigned threads,
           std::vector<TracedResult> &out, uint64_t &builds,
           uint64_t &hits)
{
    exec::ProgramCache &cache = exec::ProgramCache::global();
    uint64_t builds0 = cache.builds();
    uint64_t hits0 = cache.hits();
    out.assign(jobs.size(), TracedResult{});
    auto start = Clock::now();
    {
        exec::ThreadPool pool(threads);
        std::vector<std::future<void>> done;
        for (size_t i = 0; i < jobs.size(); ++i) {
            done.push_back(pool.submit([&, i] {
                auto task_start = Clock::now();
                std::shared_ptr<const trace::Program> program =
                    cache.get(jobs[i].workload.program);
                TracedResult r = tracedRun(jobs[i], *program);
                r.waitS =
                    std::chrono::duration<double>(task_start - start).count();
                r.busyS = secondsSince(task_start);
                out[i] = std::move(r);
            }));
        }
        for (std::future<void> &f : done)
            f.get();
    }
    double wall = secondsSince(start);
    builds = cache.builds() - builds0;
    hits = cache.hits() - hits0;
    return wall;
}

} // namespace

ReferencePass
runPass(const std::vector<harness::RunJob> &jobs, unsigned threads)
{
    ReferencePass pass;
    auto start = Clock::now();
    pass.results = harness::runBatch(jobs, threads);
    pass.wallS = secondsSince(start);
    return pass;
}

void
tracedSimulation(const std::vector<harness::RunJob> &jobs, unsigned threads,
                 double seconds, Tally &tally,
                 std::map<std::string, double> &layers)
{
    // Alternate untraced and traced passes so host drift hits both.
    std::vector<double> untraced_walls;
    std::vector<double> traced_walls;
    std::vector<std::map<std::string, double>> per_pass;
    auto start = Clock::now();
    do {
        ReferencePass ref = runPass(jobs, threads);
        untraced_walls.push_back(ref.wallS);

        std::vector<TracedResult> traced;
        uint64_t builds = 0;
        uint64_t hits = 0;
        double wall = tracedPass(jobs, threads, traced, builds, hits);
        traced_walls.push_back(wall);

        std::map<std::string, double> m;
        std::vector<double> waits_ms;
        double busy = 0.0;
        double drain = 0.0;
        double measured_insts = 0.0;
        double useful = 0.0, issued = 0.0, late = 0.0, uncovered = 0.0;
        static const char *kHooks[5] = {"operate", "fill", "issued",
                                        "branch", "cycle"};
        for (size_t i = 0; i < jobs.size(); ++i) {
            const TracedResult &r = traced[i];
            const sim::SimStats &s = r.result.stats;
            ++tally.attempted;
            std::string diff = statsDifference(ref.results[i].stats, s);
            if (!diff.empty())
                tally.fail("traced run differs from runOne on " +
                           jobs[i].workload.name + "/" +
                           jobs[i].spec.configId + ": " + diff);

            waits_ms.push_back(r.waitS * 1000.0);
            busy += r.busyS;
            std::shared_ptr<const trace::Program> program =
                exec::ProgramCache::global().get(jobs[i].workload.program);
            drain += drainSeconds(jobs[i], *program, r.log);

            m["trace.next_calls"] += static_cast<double>(r.nextCalls);
            m["trace.skip_insts"] += static_cast<double>(r.skipInsts);
            m["sim.warmup_s"] += phase(r, "warmup");
            m["sim.measure_s"] += phase(r, "measure") + phase(r, "window");
            m["sim.fill_drain_s"] += phase(r, "fill_drain");
            m["sample.warming_s"] += phase(r, "warming");
            m["sample.fast_forward_s"] += phase(r, "fast_forward");
            m["sample.window_s"] += phase(r, "window");
            double run_sim = phase(r, "warmup") + phase(r, "measure") +
                             phase(r, "window") + phase(r, "fill_drain") +
                             phase(r, "warming");
            double hooks = 0.0;
            for (int h = 0; h < 5; ++h) {
                m[std::string("prefetch.") + kHooks[h] + "_calls"] +=
                    static_cast<double>(r.hookCalls[h]);
                m[std::string("prefetch.") + kHooks[h] + "_s"] += r.hookS[h];
                hooks += r.hookS[h];
            }
            m["sim.self_s"] += run_sim - r.nextS - hooks;
            measured_insts += static_cast<double>(s.instructions);

            m["sim.cycles"] += static_cast<double>(s.cycles);
            m["sim.fetch_idle_cycles"] +=
                static_cast<double>(s.fetchIdleCycles);
            m["sim.stall_line_miss"] +=
                static_cast<double>(s.fetchStallLineMiss);
            m["sim.stall_ftq_empty_mispredict"] +=
                static_cast<double>(s.fetchStallFtqEmptyMispredict);
            m["sim.stall_ftq_empty_starved"] +=
                static_cast<double>(s.fetchStallFtqEmptyStarved);
            m["sim.stall_rob_full"] += static_cast<double>(s.fetchStallRobFull);
            m["sim.l1i.demand_misses"] +=
                static_cast<double>(s.l1i.demandMisses);
            m["sim.l2.misses"] += static_cast<double>(s.l2.demandMisses);
            m["sim.llc.misses"] += static_cast<double>(s.llc.demandMisses);
            m["sim.dram_accesses"] += static_cast<double>(s.dramAccesses);
            if (r.hasPrefetcher) {
                useful += static_cast<double>(s.l1i.usefulPrefetches);
                issued += static_cast<double>(s.l1i.prefetchIssued);
                late += static_cast<double>(s.l1i.latePrefetches);
                uncovered += static_cast<double>(s.l1i.uncoveredMisses());
            }

            const obs::CounterDump &c = r.result.counters;
            m["core.table_hits"] += counterValue(c, "entangling.table_hits");
            m["core.table_misses"] += counterValue(c, "entangling.table_misses");
            m["core.pairs_created"] +=
                counterValue(c, "entangling.pairs_created");
            m["core.merges"] += counterValue(c, "entangling.merges");
            m["core.table.evictions"] +=
                counterValue(c, "entangling.table.evictions");
            m["core.table.relocations"] +=
                counterValue(c, "entangling.table.relocations");

            if (r.result.hasSampling) {
                const sample::Summary &sum = r.result.sampling;
                m["sample.windows"] += static_cast<double>(sum.windows);
                m["sample.ipc_ci_halfwidth"] +=
                    sum.ipc.ci95 / static_cast<double>(jobs.size());
            }
            m["sample.covered_insts"] +=
                r.result.hasSampling
                    ? coveredInstructions(jobs[i].spec, r.result)
                    : 0.0;

            // Artifact rendering and parsing, timed outside the pass.
            harness::RunResult artifact_result = r.result;
            obs::RunManifest manifest = harness::makeManifest(
                jobs[i].workload, jobs[i].spec, artifact_result);
            auto t0 = Clock::now();
            std::string json = harness::runArtifactJson(
                manifest, artifact_result, /*include_timing=*/false);
            m["obs.artifact_s"] += secondsSince(t0);
            m["obs.artifact_bytes"] += static_cast<double>(json.size());
            auto t1 = Clock::now();
            bool parsed = obs::parseJson(json).has_value();
            m["obs.parse_s"] += secondsSince(t1);
            if (!parsed)
                tally.fail("artifact of " + jobs[i].workload.name +
                           " does not parse");
        }
        m["trace.drain_s"] = drain;
        m["trace.share"] = busy > 0.0 ? drain / busy : 0.0;
        m["exec.jobs"] = static_cast<double>(jobs.size());
        m["exec.program_cache_builds"] = static_cast<double>(builds);
        m["exec.program_cache_hits"] = static_cast<double>(hits);
        m["exec.job_busy_s"] = busy;
        m["exec.job_wait_p50_ms"] = median(waits_ms);
        m["exec.parallel_efficiency"] =
            wall > 0.0 ? busy / (wall * threads) : 0.0;
        m["sim.host_ns_per_cycle"] =
            m["sim.cycles"] > 0.0 ? m["sim.measure_s"] * 1e9 / m["sim.cycles"]
                                  : 0.0;
        m["sim.host_ns_per_inst"] =
            measured_insts > 0.0 ? m["sim.measure_s"] * 1e9 / measured_insts
                                 : 0.0;
        m["prefetch.accuracy"] = issued > 0.0 ? useful / issued : 0.0;
        m["prefetch.coverage"] =
            useful + uncovered > 0.0 ? useful / (useful + uncovered) : 0.0;
        m["prefetch.late_share"] =
            useful + late > 0.0 ? late / (useful + late) : 0.0;
        per_pass.push_back(std::move(m));
    } while (secondsSince(start) < seconds);

    // Medians across passes: counts repeat exactly, times vary.
    for (const auto &[name, value] : per_pass.front()) {
        (void)value;
        std::vector<double> values;
        for (const auto &m : per_pass)
            values.push_back(m.at(name));
        layers[name] = median(values);
    }
    layers["traced_overhead_pct"] =
        100.0 * (median(traced_walls) / median(untraced_walls) - 1.0);
}

} // namespace eipbench
