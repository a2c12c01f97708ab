#include "sim/cache.hh"

#include <algorithm>

#include "check/invariants.hh"
#include "obs/trace.hh"
#include "obs/why.hh"
#include "util/panic.hh"

namespace eip::sim {

namespace {

/** Record a demand miss's consumer-observed latency (full distribution;
 *  the short/medium/long classes are derived views, see CacheStats). */
void
classifyMiss(CacheStats &stats, Cycle ready, Cycle now)
{
    uint64_t wait = ready > now ? ready - now : 0;
    stats.missLatencySum += wait;
    stats.missLatency.record(wait);
}

} // namespace

Cache::Cache(const CacheConfig &config)
    : cfg(config), numSets(config.sets()),
      array_(numSets * config.ways, config.ways),
      pq(std::max<uint32_t>(1, config.pqEntries))
{
    uint32_t mshr_count = cfg.mshrEntries == 0 ? 4096 : cfg.mshrEntries;
    mshrs.resize(mshr_count);
    drainScratch_.reserve(mshr_count);
}

Cache::Mshr *
Cache::findMshr(Addr line)
{
    // Early-exit once every live entry has been seen: allocMshr hands out
    // the lowest free slot, so live entries cluster at the low indices and
    // the scan rarely walks the whole file (inflightFills_ is kept exact —
    // see the mshr_accounting invariant).
    uint64_t remaining = inflightFills_;
    for (auto &m : mshrs) {
        if (remaining == 0)
            break;
        if (!m.valid)
            continue;
        if (m.line == line)
            return &m;
        --remaining;
    }
    return nullptr;
}

Cache::Mshr *
Cache::allocMshr()
{
    for (auto &m : mshrs) {
        if (!m.valid)
            return &m;
    }
    return nullptr;
}

uint32_t
Cache::freeMshrs() const
{
    return static_cast<uint32_t>(mshrs.size() - inflightFills_);
}

Cycle
Cache::fetchFromBelow(Addr line, Addr pc, Cycle now)
{
    if (nextLevel != nullptr)
        return nextLevel->demandAccess(line, pc, now).ready;
    EIP_ASSERT(dram_ != nullptr, "last-level cache has no DRAM attached");
    return dram_->access(now);
}

void
Cache::installLine(const Mshr &entry)
{
    CacheFillInfo info;
    info.line = entry.line;
    info.cycle = entry.ready;
    info.byPrefetch = entry.isPrefetch;
    info.demandHappened = entry.demandTouched;

    auto on_evict = [&](const Array::Way &victim) {
        info.evictedValid = true;
        info.evictedLine = victim.key;
        info.evictedUnusedPrefetch =
            victim.payload.prefetched && !victim.payload.used;
        // Warming freezes statistics and observers; the prefetcher still
        // sees the full CacheFillInfo (learning continues, counting
        // does not).
        if (warming_)
            return;
        ++stats_.evictions;
        if (info.evictedUnusedPrefetch) {
            ++stats_.wrongPrefetches;
            if (tracer_ != nullptr)
                tracer_->pfEvictedUnused(victim.key, entry.ready);
        }
        if (why_ != nullptr) {
            why_->lineEvicted(victim.key, info.evictedUnusedPrefetch,
                              entry.wrongPath);
        }
    };
    array_.insert(setIndex(entry.line), entry.line, on_evict).payload =
        LineState{entry.isPrefetch, entry.demandTouched};
    if (!warming_) {
        ++stats_.fills;
        if (tracer_ != nullptr && entry.isPrefetch)
            tracer_->pfFilled(entry.line, entry.ready, entry.demandTouched);
        if (why_ != nullptr && entry.isPrefetch)
            why_->prefetchFilled(entry.line);
    }

    if (prefetcher != nullptr)
        prefetcher->onCacheFill(info);
}

void
Cache::drainFills(Cycle now)
{
    // O(1) on the per-cycle fast path: nothing due until the watermark.
    if (nextReady_ > now)
        return;

    // One scan splits the MSHRs into due fills and survivors; the due
    // ones install in (ready, MSHR index) order — exactly the order the
    // old repeated strictly-earliest selection produced — so eviction
    // decisions and fill hooks observe an unchanged timeline.
    drainScratch_.clear();
    Cycle next = kCycleNever;
    uint64_t remaining = inflightFills_; // early-exit as in findMshr()
    for (uint32_t i = 0; i < mshrs.size() && remaining > 0; ++i) {
        const Mshr &m = mshrs[i];
        if (!m.valid)
            continue;
        --remaining;
        if (m.ready <= now)
            drainScratch_.emplace_back(m.ready, i);
        else
            next = std::min(next, m.ready);
    }
    std::sort(drainScratch_.begin(), drainScratch_.end());
    for (const auto &[ready, index] : drainScratch_) {
        (void)ready;
        installLine(mshrs[index]);
        mshrs[index].valid = false;
        --inflightFills_;
    }
    nextReady_ = next;
}

bool
Cache::probe(Addr line) const
{
    return array_.find(setIndex(line), line) != nullptr;
}

Cache::Access
Cache::demandAccess(Addr line, Addr pc, Cycle now)
{
    now_ = now;
    if (nextReady_ <= now)
        drainFills(now);

    Access result;
    CacheOperateInfo op;
    op.line = line;
    op.triggerPc = pc;
    op.cycle = now;

    if (Array::Way *hit = array_.find(setIndex(line), line)) {
        ++stats_.demandAccesses;
        ++stats_.demandHits;
        array_.touch(*hit);
        if (hit->payload.prefetched && !hit->payload.used) {
            ++stats_.usefulPrefetches;
            op.hitWasPrefetch = true;
            if (tracer_ != nullptr)
                tracer_->pfFirstUse(line, now);
        }
        hit->payload.used = true;
        if (why_ != nullptr)
            why_->demandHit(line);
        result.hit = true;
        result.ready = now + cfg.hitLatency;
        op.hit = true;
        if (prefetcher != nullptr)
            prefetcher->onCacheOperate(op);
        return result;
    }

    if (cfg.idealHit) {
        // Perfect L1I: always hit, but forward the request below so the
        // pollution of the L2/LLC is still modelled (paper §IV-B).
        ++stats_.demandAccesses;
        ++stats_.demandHits;
        ++stats_.prefetchIssued;
        fetchFromBelow(line, pc, now);
        Mshr pseudo;
        pseudo.line = line;
        pseudo.ready = now;
        pseudo.isPrefetch = false;
        pseudo.demandTouched = true;
        installLine(pseudo);
        result.hit = true;
        result.ready = now + cfg.hitLatency;
        return result;
    }

    if (Mshr *inflight = findMshr(line)) {
        ++stats_.demandAccesses;
        ++stats_.demandMisses;
        if (inflight->isPrefetch && !inflight->demandTouched) {
            // The paper's "late prefetch": a demand miss finds the access
            // bit unset in the MSHR entry allocated by a prefetch.
            ++stats_.latePrefetches;
            op.missLatePrefetch = true;
            if (tracer_ != nullptr) {
                tracer_->pfLateUse(line, now,
                                   inflight->ready > now
                                       ? inflight->ready - now
                                       : 0);
            }
        } else {
            ++stats_.mshrMerges;
        }
        if (why_ != nullptr) {
            if (op.missLatePrefetch)
                why_->recordMiss(obs::MissBlame::LatePartial, line, pc);
            else
                classifyDemandMiss(line, pc);
        }
        inflight->demandTouched = true;
        // A demanded fill is no longer wrong-path pollution.
        inflight->wrongPath = false;
        result.ready = std::max(inflight->ready, now + cfg.hitLatency);
        classifyMiss(stats_, result.ready, now);
        if (tracer_ != nullptr) {
            tracer_->demandMiss(line, now,
                                result.ready > now ? result.ready - now
                                                   : 0);
        }
        if (prefetcher != nullptr)
            prefetcher->onCacheOperate(op);
        return result;
    }

    Mshr *slot = allocMshr();
    if (slot == nullptr) {
        result.mshrFull = true;
        result.ready = now + 1;
        return result;
    }

    ++stats_.demandAccesses;
    ++stats_.demandMisses;
    // Classified before onCacheOperate below trains the prefetcher, so
    // blame() sees the table state the miss actually hit.
    if (why_ != nullptr)
        classifyDemandMiss(line, pc);
    slot->valid = true;
    ++inflightFills_;
    slot->line = line;
    slot->isPrefetch = false;
    slot->demandTouched = true;
    slot->wrongPath = false;
    slot->ready = fetchFromBelow(line, pc, now);
    nextReady_ = std::min(nextReady_, slot->ready);
    result.ready = slot->ready;
    classifyMiss(stats_, result.ready, now);
    if (tracer_ != nullptr) {
        tracer_->demandMiss(line, now,
                            result.ready > now ? result.ready - now : 0);
    }
    if (prefetcher != nullptr)
        prefetcher->onCacheOperate(op);
    return result;
}

void
Cache::speculativeAccess(Addr line, Addr pc, Cycle now)
{
    now_ = now;
    if (nextReady_ <= now)
        drainFills(now);
    ++stats_.wrongPathAccesses;

    CacheOperateInfo op;
    op.line = line;
    op.triggerPc = pc;
    op.cycle = now;
    op.speculative = true;

    if (Array::Way *hit = array_.find(setIndex(line), line)) {
        // Touch the replacement state as real wrong-path fetch would, but
        // leave the prefetch used-bit alone: a speculative touch is not a
        // use.
        array_.touch(*hit);
        op.hit = true;
        if (prefetcher != nullptr)
            prefetcher->onCacheOperate(op);
        return;
    }
    ++stats_.wrongPathMisses;
    if (findMshr(line) == nullptr && !cfg.idealHit) {
        if (Mshr *slot = allocMshr()) {
            slot->valid = true;
            ++inflightFills_;
            slot->line = line;
            slot->isPrefetch = false;
            slot->demandTouched = true; // wrong-path fills look demanded
            slot->wrongPath = true;
            slot->ready = fetchFromBelow(line, pc, now);
            nextReady_ = std::min(nextReady_, slot->ready);
        }
    }
    if (prefetcher != nullptr)
        prefetcher->onCacheOperate(op);
}

Cycle
Cache::warmFetchBelow(Addr line, Addr pc, Cycle now)
{
    if (nextLevel != nullptr)
        return nextLevel->warmAccess(line, pc, now);
    EIP_ASSERT(dram_ != nullptr, "last-level cache has no DRAM attached");
    return now + dram_->warmLatency();
}

Cycle
Cache::warmAccess(Addr line, Addr pc, Cycle now)
{
    now_ = now;
    // Fills left in flight by the previous detailed window drain on
    // their own schedule (installLine is statistics-free while warming).
    if (nextReady_ <= now)
        drainFills(now);

    CacheOperateInfo op;
    op.line = line;
    op.triggerPc = pc;
    op.cycle = now;

    if (Array::Way *hit = array_.find(setIndex(line), line)) {
        array_.touch(*hit);
        if (hit->payload.prefetched && !hit->payload.used)
            op.hitWasPrefetch = true;
        hit->payload.used = true;
        op.hit = true;
        if (prefetcher != nullptr)
            prefetcher->onCacheOperate(op);
        return now + cfg.hitLatency;
    }

    if (cfg.idealHit) {
        // Mirror the timed ideal-L1I path: always hit, still pollute the
        // levels below.
        warmFetchBelow(line, pc, now);
        Mshr pseudo;
        pseudo.line = line;
        pseudo.ready = now;
        pseudo.isPrefetch = false;
        pseudo.demandTouched = true;
        installLine(pseudo);
        return now + cfg.hitLatency;
    }

    if (Mshr *inflight = findMshr(line)) {
        // A window-era fill is still in flight; demand-touch it and let
        // it drain when due (installing a second copy now would break
        // mshr_array_disjoint).
        if (inflight->isPrefetch && !inflight->demandTouched)
            op.missLatePrefetch = true;
        inflight->demandTouched = true;
        inflight->wrongPath = false;
        if (prefetcher != nullptr)
            prefetcher->onCacheOperate(op);
        return std::max(inflight->ready, now + cfg.hitLatency);
    }

    // Miss: train the prefetcher first (it records the outstanding miss),
    // then install at the synthetic latency — onCacheFill fires at the
    // cycle a timed fill would have landed, so latency learning sees the
    // same distances as detailed simulation.
    if (warmThrottle_) {
        // Data-side level: contend for a real MSHR so warming thins the
        // miss stream exactly where the timed path abandons accesses
        // (see setWarmMshrThrottle). A dropped access still trained the
        // prefetcher above, like the timed drop did.
        Mshr *slot = allocMshr();
        if (slot == nullptr) {
            if (prefetcher != nullptr)
                prefetcher->onCacheOperate(op);
            return now + cfg.hitLatency + 1;
        }
        slot->valid = true;
        ++inflightFills_;
        slot->line = line;
        slot->isPrefetch = false;
        slot->demandTouched = true;
        slot->ready = warmFetchBelow(line, pc, now);
        nextReady_ = std::min(nextReady_, slot->ready);
        if (prefetcher != nullptr)
            prefetcher->onCacheOperate(op);
        return slot->ready;
    }
    Cycle ready = warmFetchBelow(line, pc, now);
    if (prefetcher != nullptr)
        prefetcher->onCacheOperate(op);
    // The miss hook may have functionally prefetched the missing line
    // itself (enqueuePrefetch installs immediately while warming; the
    // timed path is protected by the demand MSHR allocated before its
    // hook fires). Installing a second copy would corrupt the set, so
    // adopt the prefetched copy as demand-touched instead.
    if (Array::Way *filled = array_.find(setIndex(line), line)) {
        array_.touch(*filled);
        filled->payload.used = true;
        return ready;
    }
    Mshr pseudo;
    pseudo.line = line;
    pseudo.ready = ready;
    pseudo.isPrefetch = false;
    pseudo.demandTouched = true;
    installLine(pseudo);
    return ready;
}

bool
Cache::enqueuePrefetch(Addr line)
{
    if (warming_) {
        // Functional prefetch: skip the queue and MSHRs, install the
        // line with its prefetch bit set, and fire the issue/fill hooks
        // at the synthetic latency so confidence learning continues.
        // The same duplicate filters as the timed issue path apply.
        if (array_.find(setIndex(line), line) != nullptr ||
            findMshr(line) != nullptr)
            return false;
        Cycle ready = warmFetchBelow(line, /*pc=*/0, now_);
        if (prefetcher != nullptr)
            prefetcher->onPrefetchIssued(line, now_);
        // The issue hook may itself have prefetched this line through a
        // re-entrant enqueuePrefetch — never install a second copy.
        if (array_.find(setIndex(line), line) != nullptr)
            return true;
        Mshr pseudo;
        pseudo.line = line;
        pseudo.ready = ready;
        pseudo.isPrefetch = true;
        pseudo.demandTouched = false;
        installLine(pseudo);
        return true;
    }
    ++stats_.prefetchRequested;
    if (tracer_ != nullptr)
        tracer_->pfRequested(line, now_);
    if (cfg.pqEntries == 0) {
        ++stats_.prefetchDroppedFull;
        if (tracer_ != nullptr)
            tracer_->pfDropped(line, now_, obs::PfDropReason::QueueFull);
        if (why_ != nullptr)
            why_->prefetchDropped(line, obs::PfDropReason::QueueFull);
        return false;
    }
    // Duplicate suppression inside the queue (small, linear scan is fine).
    for (const auto &e : pq) {
        if (e.line == line) {
            ++stats_.prefetchFiltered;
            ++stats_.prefetchDropDupQueued;
            if (tracer_ != nullptr) {
                tracer_->pfDropped(line, now_,
                                   obs::PfDropReason::DupQueued);
            }
            if (why_ != nullptr)
                why_->prefetchDropped(line, obs::PfDropReason::DupQueued);
            return false;
        }
    }
    if (pq.size() >= cfg.pqEntries) {
        ++stats_.prefetchDroppedFull;
        if (tracer_ != nullptr)
            tracer_->pfDropped(line, now_, obs::PfDropReason::QueueFull);
        if (why_ != nullptr)
            why_->prefetchDropped(line, obs::PfDropReason::QueueFull);
        return false;
    }
    pq.push_back(PqEntry{line});
    if (tracer_ != nullptr)
        tracer_->pfQueued(line, now_);
    if (why_ != nullptr)
        why_->prefetchQueued(line);
    return true;
}

void
Cache::issuePrefetches(Cycle now)
{
    uint32_t budget = cfg.pqIssuePerCycle;
    while (budget > 0 && !pq.empty()) {
        Addr line = pq.front().line;
        if (array_.find(setIndex(line), line) != nullptr) {
            ++stats_.prefetchFiltered;
            ++stats_.prefetchDropDupCached;
            if (tracer_ != nullptr)
                tracer_->pfDropped(line, now, obs::PfDropReason::DupCached);
            if (why_ != nullptr)
                why_->prefetchDropped(line, obs::PfDropReason::DupCached);
            pq.pop_front();
            continue;
        }
        if (findMshr(line) != nullptr) {
            ++stats_.prefetchFiltered;
            ++stats_.prefetchDropDupInflight;
            if (tracer_ != nullptr) {
                tracer_->pfDropped(line, now,
                                   obs::PfDropReason::DupInflight);
            }
            if (why_ != nullptr)
                why_->prefetchDropped(line,
                                      obs::PfDropReason::DupInflight);
            pq.pop_front();
            continue;
        }
        if (freeMshrs() <= cfg.pfMshrReserve) {
            // Keep demand-reserved MSHRs free; the request stays queued
            // and retries next cycle — a deferral, not a drop.
            ++stats_.prefetchMshrDeferrals;
            if (tracer_ != nullptr)
                tracer_->pfMshrDefer(line, now);
            return;
        }
        Mshr *slot = allocMshr();
        if (slot == nullptr)
            return;
        slot->valid = true;
        ++inflightFills_;
        slot->line = line;
        slot->isPrefetch = true;
        slot->demandTouched = false;
        slot->wrongPath = false;
        slot->ready = fetchFromBelow(line, /*pc=*/0, now);
        nextReady_ = std::min(nextReady_, slot->ready);
        ++stats_.prefetchIssued;
        if (tracer_ != nullptr)
            tracer_->pfIssued(line, now);
        if (prefetcher != nullptr)
            prefetcher->onPrefetchIssued(line, now);
        pq.pop_front();
        --budget;
    }
}

void
Cache::registerInvariants(check::Invariants &inv, const std::string &prefix)
{
    // MSHR occupancy == in-flight fills: every allocation site increments
    // inflightFills_ and every drained fill decrements it, so a leaked or
    // double-freed MSHR shows up as a recount mismatch.
    inv.add(prefix + ".mshr_accounting", [this](std::string &detail) {
        uint64_t valid = 0;
        for (const auto &m : mshrs)
            valid += m.valid ? 1 : 0;
        if (valid == inflightFills_)
            return true;
        detail = "valid_mshrs=" + std::to_string(valid) +
                 " inflight_fills=" + std::to_string(inflightFills_);
        return false;
    });

    // The fill watermark is exact (allocation sites min it down,
    // drainFills recomputes it), and no completed fill lingers past a
    // tick/access boundary — fills drain only there, never from probes.
    inv.add(prefix + ".no_overdue_fills", [this](std::string &detail) {
        Cycle min_ready = kCycleNever;
        for (const auto &m : mshrs) {
            if (m.valid)
                min_ready = std::min(min_ready, m.ready);
        }
        if (nextReady_ != min_ready) {
            detail = "watermark=" + std::to_string(nextReady_) +
                     " recounted_min=" + std::to_string(min_ready);
            return false;
        }
        if (min_ready <= now_) {
            detail = "fill ready at " + std::to_string(min_ready) +
                     " still undrained at cycle " + std::to_string(now_);
            return false;
        }
        return true;
    });

    // No duplicate lines among in-flight fills, and no line both resident
    // in the array and in flight (a fill for a resident line would install
    // a duplicate copy). The prefetch queue is deliberately NOT part of
    // this disjointness: queued requests are filtered against the array
    // and the MSHRs at issue time, so transient overlap there is legal.
    inv.add(prefix + ".mshr_array_disjoint", [this](std::string &detail) {
        std::vector<Addr> inflight;
        for (const auto &m : mshrs) {
            if (m.valid)
                inflight.push_back(m.line);
        }
        std::sort(inflight.begin(), inflight.end());
        for (size_t i = 1; i < inflight.size(); ++i) {
            if (inflight[i] == inflight[i - 1]) {
                detail = "duplicate in-flight line " +
                         std::to_string(inflight[i]);
                return false;
            }
        }
        for (Addr line : inflight) {
            if (array_.find(setIndex(line), line) != nullptr) {
                detail = "line " + std::to_string(line) +
                         " both resident and in flight";
                return false;
            }
        }
        return true;
    });

    // Prefetch-queue bounds and intra-queue duplicate suppression
    // (enqueuePrefetch drops duplicates before they enter).
    inv.add(prefix + ".pq_consistency", [this](std::string &detail) {
        if (cfg.pqEntries == 0 && !pq.empty()) {
            detail = "disabled queue holds " + std::to_string(pq.size()) +
                     " entries";
            return false;
        }
        if (cfg.pqEntries != 0 && pq.size() > cfg.pqEntries) {
            detail = "occupancy " + std::to_string(pq.size()) + " > " +
                     std::to_string(cfg.pqEntries);
            return false;
        }
        for (size_t i = 0; i < pq.size(); ++i) {
            for (size_t j = i + 1; j < pq.size(); ++j) {
                if (pq[i].line == pq[j].line) {
                    detail = "duplicate queued line " +
                             std::to_string(pq[i].line);
                    return false;
                }
            }
        }
        return true;
    });

    // Set-array audit, one set per call (rotating cursor): valid lines
    // map to the set they sit in, and no set holds the same line twice.
    inv.add(prefix + ".array_set_audit", [this](std::string &detail) {
        uint32_t set = auditSet_;
        auditSet_ = (auditSet_ + 1) % numSets;
        size_t base = static_cast<size_t>(set) * cfg.ways;
        for (uint32_t w = 0; w < cfg.ways; ++w) {
            const Array::Way &entry = array_.at(base + w);
            if (!entry.valid())
                continue;
            if (setIndex(entry.key) != set) {
                detail = "line " + std::to_string(entry.key) +
                         " stored in set " + std::to_string(set) +
                         " but maps to set " +
                         std::to_string(setIndex(entry.key));
                return false;
            }
            for (uint32_t v = w + 1; v < cfg.ways; ++v) {
                const Array::Way &other = array_.at(base + v);
                if (other.valid() && other.key == entry.key) {
                    detail = "line " + std::to_string(entry.key) +
                             " duplicated in set " + std::to_string(set);
                    return false;
                }
            }
        }
        return true;
    });

    // Stats identities: the inputs of missRatio()/coverage()/accuracy()
    // must stay mutually consistent (they all reset together at the
    // warm-up boundary, so the identities hold at every cycle).
    inv.add(prefix + ".stats_identities", [this](std::string &detail) {
        const CacheStats &s = stats_;
        if (s.demandAccesses != s.demandHits + s.demandMisses) {
            detail = "accesses=" + std::to_string(s.demandAccesses) +
                     " != hits=" + std::to_string(s.demandHits) +
                     " + misses=" + std::to_string(s.demandMisses);
            return false;
        }
        if (s.prefetchFiltered != s.prefetchDropDupQueued +
                                      s.prefetchDropDupCached +
                                      s.prefetchDropDupInflight) {
            detail = "filtered=" + std::to_string(s.prefetchFiltered) +
                     " != dup_queued=" +
                     std::to_string(s.prefetchDropDupQueued) +
                     " + dup_cached=" +
                     std::to_string(s.prefetchDropDupCached) +
                     " + dup_inflight=" +
                     std::to_string(s.prefetchDropDupInflight);
            return false;
        }
        if (s.latePrefetches > s.demandMisses) {
            // coverage()'s uncoveredMisses() would underflow.
            detail = "late=" + std::to_string(s.latePrefetches) +
                     " > misses=" + std::to_string(s.demandMisses);
            return false;
        }
        if (s.missLatency.total() != s.demandMisses) {
            detail = "latency_histogram_total=" +
                     std::to_string(s.missLatency.total()) +
                     " != misses=" + std::to_string(s.demandMisses);
            return false;
        }
        if (s.wrongPathMisses > s.wrongPathAccesses) {
            detail = "wrong_path_misses=" +
                     std::to_string(s.wrongPathMisses) + " > accesses=" +
                     std::to_string(s.wrongPathAccesses);
            return false;
        }
        return true;
    });
}

void
Cache::classifyDemandMiss(Addr line, Addr pc)
{
    obs::MissBlame verdict = why_->classifyShadow(line);
    if (verdict == obs::MissBlame::None && prefetcher != nullptr)
        verdict = prefetcher->blame(line, pc);
    if (verdict == obs::MissBlame::None) {
        verdict = why_->seenBefore(line) ? obs::MissBlame::NeverPredicted
                                         : obs::MissBlame::NotYetLearned;
    }
    why_->recordMiss(verdict, line, pc);
}

obs::EventTracer *
Prefetcher::tracer() const
{
    return owner != nullptr ? owner->tracer() : nullptr;
}

obs::MissBlame
Prefetcher::blame(Addr line, Addr pc)
{
    (void)line;
    (void)pc;
    return obs::MissBlame::None;
}

obs::MissAttribution *
Prefetcher::why() const
{
    return owner != nullptr ? owner->why() : nullptr;
}

} // namespace eip::sim
