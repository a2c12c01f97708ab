#include "sim/stats.hh"

#include "obs/registry.hh"

namespace eip::sim {

void
registerCacheStats(obs::CounterRegistry &reg, const std::string &prefix,
                   const CacheStats &stats)
{
    const CacheStats *s = &stats;
    auto name = [&prefix](const char *field) { return prefix + "." + field; };

    reg.counter(name("demand_accesses"), &s->demandAccesses);
    reg.counter(name("demand_hits"), &s->demandHits);
    reg.counter(name("demand_misses"), &s->demandMisses);
    reg.counter(name("mshr_merges"), &s->mshrMerges);
    reg.counter(name("prefetch_requested"), &s->prefetchRequested);
    reg.counter(name("prefetch_dropped_full"), &s->prefetchDroppedFull);
    reg.counter(name("prefetch_filtered"), &s->prefetchFiltered);
    reg.counter(name("prefetch_drop_dup_queued"),
                &s->prefetchDropDupQueued);
    reg.counter(name("prefetch_drop_dup_cached"),
                &s->prefetchDropDupCached);
    reg.counter(name("prefetch_drop_dup_inflight"),
                &s->prefetchDropDupInflight);
    reg.counter(name("prefetch_mshr_deferrals"),
                &s->prefetchMshrDeferrals);
    reg.counter(name("prefetch_issued"), &s->prefetchIssued);
    reg.counter(name("useful_prefetches"), &s->usefulPrefetches);
    reg.counter(name("late_prefetches"), &s->latePrefetches);
    reg.counter(name("wrong_prefetches"), &s->wrongPrefetches);
    reg.counter(name("fills"), &s->fills);
    reg.counter(name("evictions"), &s->evictions);
    reg.counter(name("write_accesses"), &s->writeAccesses);
    reg.counter(name("wrong_path_accesses"), &s->wrongPathAccesses);
    reg.counter(name("wrong_path_misses"), &s->wrongPathMisses);
    reg.counter(name("miss_latency_sum"), &s->missLatencySum);
    reg.counter(name("misses_short"), [s]() { return s->missesShort(); });
    reg.counter(name("misses_medium"), [s]() { return s->missesMedium(); });
    reg.counter(name("misses_long"), [s]() { return s->missesLong(); });

    reg.gauge(name("miss_ratio"), [s]() { return s->missRatio(); });
    reg.gauge(name("coverage"), [s]() { return s->coverage(); });
    reg.gauge(name("accuracy"), [s]() { return s->accuracy(); });

    reg.histogram(name("miss_latency"), &s->missLatency);
}

void
registerSimStats(obs::CounterRegistry &reg, const SimStats &stats)
{
    registerSimStats(reg, stats, stats.l1i, stats.l1d, stats.l2, stats.llc);
}

void
registerSimStats(obs::CounterRegistry &reg, const SimStats &core,
                 const CacheStats &l1i, const CacheStats &l1d,
                 const CacheStats &l2, const CacheStats &llc)
{
    const SimStats *s = &core;
    const CacheStats *l1i_stats = &l1i;

    reg.counter("cpu.instructions", &s->instructions);
    reg.counter("cpu.cycles", &s->cycles);
    reg.counter("cpu.branches", &s->branches);
    reg.counter("cpu.branch_mispredicts", &s->branchMispredicts);
    reg.counter("cpu.btb_misses", &s->btbMisses);
    reg.counter("cpu.fetch_stall_line_miss", &s->fetchStallLineMiss);
    reg.counter("cpu.fetch_stall_ftq_empty",
                [s]() { return s->fetchStallFtqEmpty(); });
    reg.counter("cpu.fetch_stall_ftq_empty_mispredict",
                &s->fetchStallFtqEmptyMispredict);
    reg.counter("cpu.fetch_stall_ftq_empty_starved",
                &s->fetchStallFtqEmptyStarved);
    reg.counter("cpu.fetch_stall_rob_full", &s->fetchStallRobFull);
    reg.counter("cpu.fetch_idle_cycles", &s->fetchIdleCycles);
    reg.counter("dram.accesses", &s->dramAccesses);

    reg.gauge("cpu.ipc", [s]() { return s->ipc(); });
    reg.gauge("l1i.mpki", [s, l1i_stats]() {
        return perKiloInstruction(l1i_stats->demandMisses, s->instructions);
    });

    registerCacheStats(reg, "l1i", l1i);
    registerCacheStats(reg, "l1d", l1d);
    registerCacheStats(reg, "l2", l2);
    registerCacheStats(reg, "llc", llc);
}

} // namespace eip::sim
