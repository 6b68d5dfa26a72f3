// Timing decorators for the traced run. Each wraps one layer's public
// interface, forwards every call unchanged and accumulates call counts and
// steady-clock time, so per-layer attribution is measured from outside the
// program without touching src/.

#ifndef HOS_E2EBENCH_LAYER_TIMERS_H_
#define HOS_E2EBENCH_LAYER_TIMERS_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/knn/knn_engine.h"
#include "src/search/od_evaluator.h"

namespace hos::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Forwards to the miner's engine; times Search / SearchBatch and logs the
/// (point, mask) of every exact call so the filter can be replayed on them.
class TimingKnn : public knn::KnnEngine {
 public:
  struct Tally {
    uint64_t calls = 0;
    /// Query points served: 1 per Search, the batch size per SearchBatch.
    uint64_t points = 0;
    double seconds = 0.0;
    /// (row id, mask) of every point of every exact call.
    std::vector<std::pair<data::PointId, uint64_t>> pairs;
  };

  TimingKnn(const knn::KnnEngine& inner, Tally* tally)
      : inner_(inner), tally_(tally) {}

  std::vector<knn::Neighbor> Search(const knn::KnnQuery& query) const override {
    const Clock::time_point start = Clock::now();
    std::vector<knn::Neighbor> out = inner_.Search(query);
    tally_->seconds += SecondsSince(start);
    ++tally_->calls;
    ++tally_->points;
    tally_->pairs.emplace_back(query.exclude.value_or(0),
                               query.subspace.mask());
    return out;
  }

  std::vector<std::vector<knn::Neighbor>> SearchBatch(
      std::span<const knn::BatchPointQuery> points, const Subspace& subspace,
      int k) const override {
    const Clock::time_point start = Clock::now();
    std::vector<std::vector<knn::Neighbor>> out =
        inner_.SearchBatch(points, subspace, k);
    tally_->seconds += SecondsSince(start);
    ++tally_->calls;
    tally_->points += points.size();
    for (const knn::BatchPointQuery& p : points) {
      tally_->pairs.emplace_back(p.exclude.value_or(0), subspace.mask());
    }
    return out;
  }

  std::vector<knn::Neighbor> RangeSearch(std::span<const double> point,
                                         const Subspace& subspace,
                                         double radius) const override {
    return inner_.RangeSearch(point, subspace, radius);
  }
  size_t size() const override { return inner_.size(); }
  knn::MetricKind metric() const override { return inner_.metric(); }
  uint64_t distance_computations() const override {
    return inner_.distance_computations();
  }
  knn::KnnBackendStats backend_stats() const override {
    return inner_.backend_stats();
  }

 private:
  const knn::KnnEngine& inner_;
  Tally* tally_;
};

/// Forwards to an OdCache::VersionView (or any store); times lookups and
/// stores per key and counts hits.
class TimingStore : public search::SharedOdStore {
 public:
  struct Tally {
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t stores = 0;
    double lookup_seconds = 0.0;
    double store_seconds = 0.0;
  };

  TimingStore(search::SharedOdStore* inner, Tally* tally)
      : inner_(inner), tally_(tally) {}

  bool Lookup(data::PointId id, uint64_t mask, double* od) override {
    const Clock::time_point start = Clock::now();
    const bool hit = inner_->Lookup(id, mask, od);
    tally_->lookup_seconds += SecondsSince(start);
    ++tally_->lookups;
    tally_->hits += hit ? 1 : 0;
    return hit;
  }
  void Store(data::PointId id, uint64_t mask, double od) override {
    const Clock::time_point start = Clock::now();
    inner_->Store(id, mask, od);
    tally_->store_seconds += SecondsSince(start);
    ++tally_->stores;
  }
  void LookupMulti(std::span<const OdKey> keys, std::span<double> od,
                   std::span<uint8_t> found) override {
    const Clock::time_point start = Clock::now();
    inner_->LookupMulti(keys, od, found);
    tally_->lookup_seconds += SecondsSince(start);
    tally_->lookups += keys.size();
    for (uint8_t f : found) tally_->hits += f;
  }
  void StoreMulti(std::span<const OdKey> keys,
                  std::span<const double> od) override {
    const Clock::time_point start = Clock::now();
    inner_->StoreMulti(keys, od);
    tally_->store_seconds += SecondsSince(start);
    tally_->stores += keys.size();
  }

 private:
  search::SharedOdStore* inner_;
  Tally* tally_;
};

}  // namespace hos::e2e

#endif  // HOS_E2EBENCH_LAYER_TIMERS_H_
