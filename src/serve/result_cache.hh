/**
 * @file
 * Content-addressed result cache: rendered eip-run/v1 artifacts keyed
 * by harness::resultCacheKey (build id + canonical config + canonical
 * spec + workload identity). Because artifacts are byte-deterministic
 * and timing-free, a cached body is indistinguishable from a fresh
 * simulation — serving it is correct by construction, and the warm-path
 * tests prove it with a byte-level diff.
 *
 * Capacity is bounded in artifact bytes (not entry count: one sampled
 * fig6 artifact is ~100x a tiny smoke artifact) with LRU eviction via
 * util::LruMap.
 *
 * Artifacts are immutable and shared: the cache, every job it answered
 * and the job that produced the artifact hold one copy between them.
 */

#ifndef EIP_SERVE_RESULT_CACHE_HH
#define EIP_SERVE_RESULT_CACHE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "util/lru.hh"

namespace eip::obs {
class CounterRegistry;
}

namespace eip::serve {

/** One rendered artifact, shared read-only. */
using Artifact = std::shared_ptr<const std::string>;

class ResultCache
{
  public:
    explicit ResultCache(uint64_t capacity_bytes);

    /** The cached artifact for @p key (refreshing its recency), or
     *  nullptr. */
    Artifact get(const std::string &key);

    /** Store @p artifact (non-null) under @p key, evicting
     *  least-recently-served entries once the byte budget is exceeded. */
    void put(const std::string &key, Artifact artifact);

    uint64_t hits() const;
    uint64_t misses() const;
    uint64_t evictions() const;
    uint64_t entries() const;
    /** Current artifact bytes resident. */
    uint64_t bytes() const;
    uint64_t capacityBytes() const;

    /** Register <prefix>.hits/.misses/.evictions/.entries/.bytes with
     *  @p registry — the same eviction-stat vocabulary as
     *  exec::ProgramCache::registerStats. */
    void registerStats(obs::CounterRegistry &registry,
                       const std::string &prefix) const;

  private:
    mutable std::mutex mutex_;
    util::LruMap<std::string, Artifact> artifacts_;
};

} // namespace eip::serve

#endif // EIP_SERVE_RESULT_CACHE_HH
