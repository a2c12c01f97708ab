#include "serve/result_cache.hh"

#include "obs/registry.hh"

namespace eip::serve {

ResultCache::ResultCache(uint64_t capacity_bytes)
    : artifacts_(capacity_bytes)
{
}

Artifact
ResultCache::get(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (Artifact *artifact = artifacts_.get(key))
        return *artifact;
    return nullptr;
}

void
ResultCache::put(const std::string &key, Artifact artifact)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t weight = artifact->size();
    artifacts_.put(key, std::move(artifact), weight);
}

uint64_t
ResultCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return artifacts_.hits();
}

uint64_t
ResultCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return artifacts_.misses();
}

uint64_t
ResultCache::evictions() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return artifacts_.evictions();
}

uint64_t
ResultCache::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return artifacts_.size();
}

uint64_t
ResultCache::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return artifacts_.weight();
}

uint64_t
ResultCache::capacityBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return artifacts_.capacity();
}

void
ResultCache::registerStats(obs::CounterRegistry &registry,
                           const std::string &prefix) const
{
    registry.counter(prefix + ".hits", [this]() { return hits(); });
    registry.counter(prefix + ".misses", [this]() { return misses(); });
    registry.counter(prefix + ".evictions",
                     [this]() { return evictions(); });
    registry.counter(prefix + ".entries", [this]() { return entries(); });
    registry.counter(prefix + ".bytes", [this]() { return bytes(); });
}

} // namespace eip::serve
