// OdEvaluator: computes and caches OD(p, s) for one query point across the
// many subspaces a lattice search touches.

#ifndef HOS_SEARCH_OD_EVALUATOR_H_
#define HOS_SEARCH_OD_EVALUATOR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/subspace.h"
#include "src/knn/knn_engine.h"

namespace hos::search {

/// Cross-query OD memo keyed by (dataset row, subspace mask). The service
/// layer implements this with a sharded LRU cache shared by all worker
/// threads; implementations must therefore be safe for concurrent Lookup
/// and Store. OD(p, s) is a pure function of the dataset, k and the metric,
/// so a stored value is exactly the double a fresh evaluation would
/// produce — memoisation never changes answers.
class SharedOdStore {
 public:
  virtual ~SharedOdStore() = default;

  /// True and fills `*od` when a value for (id, mask) is present.
  virtual bool Lookup(data::PointId id, uint64_t mask, double* od) = 0;

  /// Records OD(id, mask) = od.
  virtual void Store(data::PointId id, uint64_t mask, double od) = 0;

  /// One (dataset row, subspace mask) key of a batched probe.
  struct OdKey {
    data::PointId id = 0;
    uint64_t mask = 0;
  };

  /// Batched lookup: `keys`, `od` and `found` must be equally sized;
  /// found[i] is set to 1 and od[i] filled exactly when keys[i] is present
  /// (od[i] is untouched otherwise). The default loops over Lookup(); the
  /// service's sharded cache overrides it to visit each shard once per
  /// batch — O(shards) lock acquisitions instead of O(keys) — which is
  /// where the fused batch path recovers the lock traffic a per-point loop
  /// pays. Values are identical to per-key Lookup calls either way.
  virtual void LookupMulti(std::span<const OdKey> keys, std::span<double> od,
                           std::span<uint8_t> found) {
    for (size_t i = 0; i < keys.size(); ++i) {
      found[i] = Lookup(keys[i].id, keys[i].mask, &od[i]) ? 1 : 0;
    }
  }

  /// Batched Store with the same default-loop / sharded-override contract
  /// as LookupMulti.
  virtual void StoreMulti(std::span<const OdKey> keys,
                          std::span<const double> od) {
    for (size_t i = 0; i < keys.size(); ++i) {
      Store(keys[i].id, keys[i].mask, od[i]);
    }
  }
};

/// Bound to one query point; caches OD values by subspace mask so repeated
/// probes of the same subspace (e.g. by different search strategies in
/// tests) cost one kNN query only.
///
/// Thread safety: not thread-safe; an evaluator belongs to one walk on one
/// thread. BatchFrontierRunner reads its immutable query parameters
/// (engine, point, k, exclude, store) to fuse a round's kNN calls across
/// its block, then records the values through Deposit().
class OdEvaluator {
 public:
  /// `point` and `engine` must outlive the evaluator. `exclude` removes the
  /// query point itself from its neighbour sets when it is a dataset row.
  /// When `shared_store` is non-null and the query point is a dataset row
  /// (i.e. `exclude` is set, whose value doubles as the row id), evaluations
  /// are memoised across queries through the store.
  OdEvaluator(const knn::KnnEngine& engine, std::span<const double> point,
              int k, std::optional<data::PointId> exclude = std::nullopt,
              SharedOdStore* shared_store = nullptr)
      : engine_(engine), point_(point), k_(k), exclude_(exclude),
        shared_store_(shared_store) {}

  /// OD(p, s): sum of distances to the k nearest neighbours in s (paper §2).
  double Evaluate(const Subspace& subspace);

  /// True and fills `*od` when `mask` is already in the per-query memo.
  /// Performs no kNN work and no shared-store probe. Safe to call
  /// concurrently with other const reads (but not with Evaluate/Deposit).
  bool LookupLocal(uint64_t mask, double* od) const {
    auto it = cache_.find(mask);
    if (it == cache_.end()) return false;
    *od = it->second;
    return true;
  }

  /// Where a deposited value came from, for counter bookkeeping.
  enum class ValueSource : uint8_t {
    kComputed,        ///< fresh kNN evaluation (counts as an od evaluation)
    kSharedStoreHit,  ///< answered by the cross-query SharedOdStore
  };

  /// Records an externally produced OD value (BatchFrontierRunner's merge
  /// path). The value must be exactly what Evaluate(mask) would return —
  /// OD is a pure function, so values from a fused batch call qualify.
  /// No-op when the mask is already memoised.
  void Deposit(uint64_t mask, double od, ValueSource source);

  /// Number of distinct subspaces actually evaluated (cache misses) — the
  /// primary work counter of the efficiency experiments.
  uint64_t num_evaluations() const { return num_evaluations_; }

  /// Subspaces answered from the cross-query SharedOdStore (no kNN work).
  uint64_t num_shared_hits() const { return num_shared_hits_; }

  int k() const { return k_; }
  std::span<const double> point() const { return point_; }
  const knn::KnnEngine& engine() const { return engine_; }
  std::optional<data::PointId> exclude() const { return exclude_; }
  /// Null when no cross-query memo is attached.
  SharedOdStore* shared_store() const { return shared_store_; }
  /// True when evaluations may go through the shared store (store attached
  /// and the query point is a dataset row).
  bool shareable() const {
    return shared_store_ != nullptr && exclude_.has_value();
  }

 private:
  const knn::KnnEngine& engine_;
  std::span<const double> point_;
  int k_;
  std::optional<data::PointId> exclude_;
  SharedOdStore* shared_store_;
  std::unordered_map<uint64_t, double> cache_;
  uint64_t num_evaluations_ = 0;
  uint64_t num_shared_hits_ = 0;
};

}  // namespace hos::search

#endif  // HOS_SEARCH_OD_EVALUATOR_H_
