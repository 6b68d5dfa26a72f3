#include "src/service/od_cache.h"

#include <algorithm>

namespace hos::service {

namespace {

/// Index-chaining scratch for grouping a key batch by shard without one
/// heap vector per shard: head[s] -> first key index in shard s, next[i]
/// -> following key index, kChainEnd terminates. Built back-to-front so
/// each chain walks the keys in their original (ascending) batch order.
constexpr size_t kChainEnd = static_cast<size_t>(-1);

size_t RoundUpToPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

OdCache::OdCache(OdCacheConfig config) {
  const size_t num_shards =
      RoundUpToPowerOfTwo(std::max(config.num_shards, 1));
  shard_mask_ = num_shards - 1;
  capacity_ = std::max<size_t>(config.capacity, num_shards);
  per_shard_capacity_ = std::max<size_t>(capacity_ / num_shards, 1);
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

template <typename PerKey>
void OdCache::ForEachKeyByShard(
    uint64_t version, std::span<const search::SharedOdStore::OdKey> keys,
    PerKey per_key) {
  std::vector<size_t> head(shards_.size(), kChainEnd);
  std::vector<size_t> next(keys.size());
  for (size_t i = keys.size(); i-- > 0;) {
    const size_t s =
        KeyHash{}(Key{version, keys[i].id, keys[i].mask}) & shard_mask_;
    next[i] = head[s];
    head[s] = i;
  }
  for (size_t s = 0; s < head.size(); ++s) {
    if (head[s] == kChainEnd) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (size_t i = head[s]; i != kChainEnd; i = next[i]) {
      per_key(shard, Key{version, keys[i].id, keys[i].mask}, i);
    }
  }
}

bool OdCache::Lookup(uint64_t version, data::PointId id, uint64_t mask,
                     double* od) {
  const search::SharedOdStore::OdKey key{id, mask};
  uint8_t found = 0;
  LookupMulti(version, {&key, 1}, {od, 1}, {&found, 1});
  return found != 0;
}

void OdCache::Store(uint64_t version, data::PointId id, uint64_t mask,
                    double od) {
  const search::SharedOdStore::OdKey key{id, mask};
  StoreMulti(version, {&key, 1}, {&od, 1});
}

void OdCache::LookupMulti(uint64_t version,
                          std::span<const search::SharedOdStore::OdKey> keys,
                          std::span<double> od, std::span<uint8_t> found) {
  uint64_t hit_count = 0;
  uint64_t miss_count = 0;
  ForEachKeyByShard(version, keys, [&](Shard& shard, const Key& key,
                                       size_t i) {
    auto it = shard.index.find(key);
    if (it == shard.index.end()) {
      found[i] = 0;
      ++miss_count;
      return;
    }
    // Move to the front of the recency list.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    od[i] = it->second->second;
    found[i] = 1;
    ++hit_count;
  });
  hits_ += hit_count;
  misses_ += miss_count;
}

void OdCache::StoreMulti(uint64_t version,
                         std::span<const search::SharedOdStore::OdKey> keys,
                         std::span<const double> od) {
  uint64_t eviction_count = 0;
  ForEachKeyByShard(version, keys, [&](Shard& shard, const Key& key,
                                       size_t i) {
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      it->second->second = od[i];
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    shard.lru.emplace_front(key, od[i]);
    shard.index.emplace(key, shard.lru.begin());
    if (shard.lru.size() > per_shard_capacity_) {
      shard.index.erase(shard.lru.back().first);
      shard.lru.pop_back();
      ++eviction_count;
    }
  });
  evictions_ += eviction_count;
}

size_t OdCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

void OdCache::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->index.clear();
    shard->lru.clear();
  }
}

double OdCache::hit_rate() const {
  const uint64_t h = hits_;
  const uint64_t total = h + misses_;
  return total == 0 ? 0.0 : static_cast<double>(h) / total;
}

}  // namespace hos::service
