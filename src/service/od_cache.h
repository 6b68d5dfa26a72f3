// OdCache: a sharded, mutex-striped LRU cache memoising OD(point, subspace)
// values across queries — the cross-query analogue of OdEvaluator's
// per-query memo. Repeated queries for the same point (hot keys in a
// serving workload) and overlapping screening sweeps hit the cache instead
// of re-running kNN searches.
//
// Concurrency: the key space is hashed over `num_shards` independent
// shards, each protected by its own mutex, so threads touching different
// shards never contend.
//
// Correctness under streaming ingest: OD(p, s) is a pure function of the
// *dataset contents*, k and metric — and appends change the contents — so
// every entry is keyed by the dataset version it was computed at. A lookup
// at version v can only ever return a value stored at exactly v, making it
// structurally impossible to serve an OD computed against an older dataset
// state; entries for dead versions age out of the LRU as new-version
// traffic displaces them. Queries bind their version with the VersionView
// adapter, the search::SharedOdStore implementation handed to OdEvaluator.

#ifndef HOS_SERVICE_OD_CACHE_H_
#define HOS_SERVICE_OD_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/atomic_counter.h"
#include "src/data/dataset.h"
#include "src/search/od_evaluator.h"

namespace hos::service {

struct OdCacheConfig {
  /// Total capacity in entries across all shards. One entry is one
  /// (version, point, subspace) → OD double, ~56 bytes with bookkeeping.
  size_t capacity = 1 << 20;
  /// Number of independent mutex-striped shards; rounded up to a power of
  /// two. More shards, less contention.
  int num_shards = 16;
};

class OdCache {
 public:
  explicit OdCache(OdCacheConfig config = {});

  /// True and fills `*od` when a value for (id, mask) computed at exactly
  /// `version` is present. LookupMulti over the one key.
  bool Lookup(uint64_t version, data::PointId id, uint64_t mask, double* od);

  /// Records OD(id, mask) = od as computed at dataset version `version`.
  /// StoreMulti over the one key.
  void Store(uint64_t version, data::PointId id, uint64_t mask, double od);

  /// Batched Lookup, the probe of every lattice wave: keys are bucketed by
  /// shard and every *touched shard* is visited under one lock acquisition
  /// — O(shards) instead of O(keys) lock traffic per batch. found[i] is set
  /// to 1 and od[i] filled exactly when keys[i] is present at `version`;
  /// recency, hit/miss counters and returned values match a sequence of
  /// per-key Lookup calls.
  void LookupMulti(uint64_t version,
                   std::span<const search::SharedOdStore::OdKey> keys,
                   std::span<double> od, std::span<uint8_t> found);

  /// Batched Store with the same one-lock-per-touched-shard contract as
  /// LookupMulti.
  void StoreMulti(uint64_t version,
                  std::span<const search::SharedOdStore::OdKey> keys,
                  std::span<const double> od);

  /// SharedOdStore adapter binding one dataset version: the per-query
  /// bridge QueryService puts on the stack so OdEvaluator's lookups and
  /// stores are version-keyed without the evaluator knowing about
  /// versions. A null cache degrades to a no-op store.
  class VersionView : public search::SharedOdStore {
   public:
    VersionView(OdCache* cache, uint64_t version)
        : cache_(cache), version_(version) {}

    bool Lookup(data::PointId id, uint64_t mask, double* od) override {
      return cache_ != nullptr && cache_->Lookup(version_, id, mask, od);
    }
    void Store(data::PointId id, uint64_t mask, double od) override {
      if (cache_ != nullptr) cache_->Store(version_, id, mask, od);
    }
    void LookupMulti(std::span<const OdKey> keys, std::span<double> od,
                     std::span<uint8_t> found) override {
      if (cache_ == nullptr) {
        std::fill(found.begin(), found.end(), 0);
        return;
      }
      cache_->LookupMulti(version_, keys, od, found);
    }
    void StoreMulti(std::span<const OdKey> keys,
                    std::span<const double> od) override {
      if (cache_ != nullptr) cache_->StoreMulti(version_, keys, od);
    }

    uint64_t version() const { return version_; }

   private:
    OdCache* cache_;
    uint64_t version_;
  };

  /// Entries currently resident (sums shard sizes; approximate under
  /// concurrent mutation).
  size_t size() const;

  /// Drops every entry; counters are preserved.
  void Clear();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

  /// hits / (hits + misses); 0 when no lookups happened.
  double hit_rate() const;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  size_t capacity() const { return capacity_; }

 private:
  /// (dataset version, point id, subspace mask). The subspace mask of a
  /// lattice search fits 22 bits but masks up to 62 bits are legal, so all
  /// fields are kept whole.
  struct Key {
    uint64_t version;
    data::PointId id;
    uint64_t mask;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      // splitmix64 over the packed fields: cheap and well distributed for
      // the dense id / sparse mask / slowly-advancing version structure of
      // the key space.
      uint64_t x = (static_cast<uint64_t>(key.id) << 1) ^ key.mask ^
                   (key.mask << 23) ^
                   (key.version * 0x9e3779b97f4a7c15ULL);
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ULL;
      x ^= x >> 27;
      x *= 0x94d049bb133111ebULL;
      x ^= x >> 31;
      return static_cast<size_t>(x);
    }
  };

  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<Key, double>> lru;
    std::unordered_map<Key, std::list<std::pair<Key, double>>::iterator,
                       KeyHash>
        index;
  };

  /// The one probe path: groups `keys` by shard, then calls
  /// per_key(shard, key, i) for each keys[i] under its shard's lock, one
  /// lock acquisition per touched shard, the keys of a shard in batch
  /// order.
  template <typename PerKey>
  void ForEachKeyByShard(uint64_t version,
                         std::span<const search::SharedOdStore::OdKey> keys,
                         PerKey per_key);

  size_t capacity_;
  size_t per_shard_capacity_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable RelaxedCounter hits_;
  mutable RelaxedCounter misses_;
  mutable RelaxedCounter evictions_;
};

}  // namespace hos::service

#endif  // HOS_SERVICE_OD_CACHE_H_
