/**
 * @file
 * google-benchmark microbenchmarks of the hardware-structure models: the
 * Entangled table, the History buffer, the destination compression, the
 * cache, the BTB, and the synthetic trace executor. These guard the
 * simulation speed the figure benches depend on.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/entangled_table.hh"
#include "core/entangling.hh"
#include "core/history_buffer.hh"
#include "sim/branch.hh"
#include "sim/cache.hh"
#include "sim/dram.hh"
#include "trace/executor.hh"
#include "trace/workloads.hh"
#include "util/rng.hh"

using namespace eip;

namespace {

void
BM_EntangledTableLookup(benchmark::State &state)
{
    core::EntangledTable table(
        static_cast<uint32_t>(state.range(0)), 16,
        core::CompressionScheme::virtualScheme());
    Rng rng(1);
    for (int i = 0; i < 2000; ++i)
        table.recordBasicBlock(rng.below(1 << 20), 3);
    uint64_t line = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.find(line));
        line = (line + 97) & ((1 << 20) - 1);
    }
}
BENCHMARK(BM_EntangledTableLookup)->Arg(2048)->Arg(4096)->Arg(8192);

void
BM_EntangledTableAddPair(benchmark::State &state)
{
    core::EntangledTable table(4096, 16,
                               core::CompressionScheme::virtualScheme());
    Rng rng(2);
    for (auto _ : state) {
        sim::Addr src = rng.below(1 << 18);
        table.addPair(src, src + 1 + rng.below(128), true);
    }
}
BENCHMARK(BM_EntangledTableAddPair);

void
BM_HistoryBufferPushWalk(benchmark::State &state)
{
    core::HistoryBuffer hist(16, 20);
    uint64_t cycle = 0;
    for (auto _ : state) {
        hist.push(cycle & 0xffff, cycle);
        benchmark::DoNotOptimize(hist.walkBackwards(
            hist.newest(), 16, [&](core::HistoryEntry &e) {
                return hist.age(e.timestamp, cycle) >= 100;
            }));
        cycle += 13;
    }
}
BENCHMARK(BM_HistoryBufferPushWalk);

void
BM_DestinationInsert(benchmark::State &state)
{
    core::DestinationArray arr(core::CompressionScheme::virtualScheme());
    Rng rng(3);
    sim::Addr src = 0x40000;
    for (auto _ : state) {
        arr.insert(src, src + 1 + rng.below(200), true);
    }
}
BENCHMARK(BM_DestinationInsert);

void
BM_CacheDemandAccess(benchmark::State &state)
{
    sim::CacheConfig cfg;
    cfg.sizeBytes = 32 * 1024;
    cfg.ways = 8;
    cfg.mshrEntries = 10;
    sim::Cache cache(cfg);
    sim::Dram dram(200, 0);
    cache.setDram(&dram);
    Rng rng(4);
    sim::Cycle now = 0;
    for (auto _ : state) {
        now += 2;
        benchmark::DoNotOptimize(
            cache.demandAccess(rng.below(2048), 0, now));
    }
}
BENCHMARK(BM_CacheDemandAccess);

/** The front end's per-taken-branch BTB work (lookup, then update) on
 *  the default 8K-entry, 8-way BTB. Half the stream revisits a hot set
 *  of 2K branches, the rest spreads over 16K, so the working set
 *  overflows the BTB and both hits and evictions are exercised. */
void
BM_BtbLookupUpdate(benchmark::State &state)
{
    sim::SimConfig cfg;
    sim::Btb btb(cfg.btbEntries, cfg.btbWays);
    Rng rng(6);
    std::vector<sim::Addr> pcs(1 << 16);
    for (sim::Addr &pc : pcs)
        pc = 0x400000 + 4 * rng.below(rng.chance(0.5) ? 2048 : 16384);
    size_t i = 0;
    for (auto _ : state) {
        sim::Addr pc = pcs[i];
        i = (i + 1) & (pcs.size() - 1);
        benchmark::DoNotOptimize(btb.lookup(pc));
        btb.update(pc, pc + 64);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_BtbLookupUpdate);

/** `tiny` or a CVP catalogue workload such as `srv-1`. */
trace::Workload
workloadNamed(const std::string &name)
{
    if (name == "tiny")
        return trace::tinyWorkload();
    for (const trace::Workload &w : trace::cvpSuite(1)) {
        if (w.name == name)
            return w;
    }
    std::abort();
}

void
BM_TraceExecutor(benchmark::State &state, const char *workload)
{
    trace::Workload w = workloadNamed(workload);
    trace::Program prog = trace::buildProgram(w.program);
    trace::Executor exec(prog, w.exec);
    for (auto _ : state)
        benchmark::DoNotOptimize(exec.next());
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_TraceExecutor, tiny, "tiny");
BENCHMARK_CAPTURE(BM_TraceExecutor, srv1, "srv-1");

/** Fast-forward throughput (the sampling controller's skip phase), to
 *  read against BM_TraceExecutor/srv1 in items per second. */
void
BM_TraceExecutorSkip(benchmark::State &state, const char *workload)
{
    constexpr uint64_t kSpan = 1 << 16;
    trace::Workload w = workloadNamed(workload);
    trace::Program prog = trace::buildProgram(w.program);
    trace::Executor exec(prog, w.exec);
    for (auto _ : state) {
        exec.skip(kSpan);
        benchmark::DoNotOptimize(exec.emitted());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kSpan));
}
BENCHMARK_CAPTURE(BM_TraceExecutorSkip, srv1, "srv-1");

void
BM_EntanglingOperateHook(benchmark::State &state)
{
    core::EntanglingPrefetcher pf(core::EntanglingConfig::preset4K());
    sim::CacheConfig cfg;
    cfg.sizeBytes = 32 * 1024;
    cfg.pqEntries = 32;
    sim::Cache host(cfg);
    sim::Dram dram(200, 0);
    host.setDram(&dram);
    pf.attach(host);

    Rng rng(5);
    sim::Cycle now = 0;
    for (auto _ : state) {
        now += 3;
        sim::CacheOperateInfo info;
        info.line = rng.below(1 << 14);
        info.cycle = now;
        info.hit = rng.chance(0.8);
        pf.onCacheOperate(info);
        if (!info.hit) {
            sim::CacheFillInfo fill;
            fill.line = info.line;
            fill.cycle = now + 40;
            fill.demandHappened = true;
            pf.onCacheFill(fill);
        }
        host.tick(now);
    }
}
BENCHMARK(BM_EntanglingOperateHook);

} // namespace

BENCHMARK_MAIN();
