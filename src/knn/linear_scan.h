// LinearScanKnn: exact brute-force kNN. Serves as the correctness oracle
// for the X-tree and as the "no index" baseline in the efficiency
// experiments (E8).
//
// Since the kernel rewire the scan runs blockwise over a column-major SoA
// snapshot (kernels::DatasetView) through the shared
// BatchedSubspaceDistance kernel, with partial-distance early exit against
// the running k-th neighbour bound. Results are identical to the scalar
// per-point metric path (tests/kernels/ enforces this).
//
// Streaming ingest: the snapshot is the engine's immutable *base*. Rows
// appended to the dataset afterwards (the delta) are merged in exactly via
// a scalar sweep (knn/delta_scan.h), so the engine keeps answering
// correctly while the dataset grows; Rebuild() re-snapshots to fold the
// delta back into the kernel path. The full-scalar fallback now only
// serves when the base itself was invalidated by an in-place overwrite —
// taking it is counted and logged (stale_fallbacks()).

#ifndef HOS_KNN_LINEAR_SCAN_H_
#define HOS_KNN_LINEAR_SCAN_H_

#include <memory>

#include "src/common/atomic_counter.h"
#include "src/kernels/dataset_view.h"
#include "src/knn/knn_engine.h"

namespace hos::knn {

/// Scans all points for every query. O(n·dim(s)) per query. The referenced
/// dataset must outlive the engine.
class LinearScanKnn : public KnnEngine {
 public:
  /// Builds a private SoA snapshot of `dataset` for the kernel path.
  LinearScanKnn(const data::Dataset& dataset, MetricKind metric)
      : LinearScanKnn(dataset, metric, nullptr) {}

  /// Shares a prebuilt SoA view (in Build's order) instead of copying; a
  /// null `view` builds a private one.
  LinearScanKnn(const data::Dataset& dataset, MetricKind metric,
                std::shared_ptr<const kernels::DatasetView> view);

  std::vector<Neighbor> Search(const KnnQuery& query) const override;

  std::vector<Neighbor> RangeSearch(std::span<const double> point,
                                    const Subspace& subspace,
                                    double radius) const override;

  /// Fused multi-point scan: one pass over the SoA base serves the whole
  /// batch (kernels::ScanAllForTopKMulti), then each point merges the
  /// append delta scalar-exactly. Answers are bitwise identical to the
  /// per-point Search loop. Falls back to that loop when the base snapshot
  /// cannot serve.
  std::vector<std::vector<Neighbor>> SearchBatch(
      std::span<const BatchPointQuery> points, const Subspace& subspace,
      int k) const override;

  /// Re-snapshots the SoA base to cover all current dataset rows (sharing
  /// `view` when given, building a private one when null), emptying the
  /// delta. Not thread-safe with concurrent queries.
  void Rebuild(std::shared_ptr<const kernels::DatasetView> view = nullptr);

  size_t size() const override { return dataset_.size(); }
  MetricKind metric() const override { return metric_; }
  uint64_t distance_computations() const override { return distance_count_; }
  KnnBackendStats backend_stats() const override;

  /// Queries served entirely by the scalar fallback because the snapshot
  /// was invalidated by an in-place overwrite (not by appends).
  uint64_t stale_fallbacks() const { return stale_fallbacks_; }

 private:
  const data::Dataset& dataset_;
  MetricKind metric_;
  std::shared_ptr<const kernels::DatasetView> view_;
  mutable RelaxedCounter distance_count_;  // race-free under concurrent Search
  mutable RelaxedCounter stale_fallbacks_;
  mutable RelaxedCounter kernel_scans_;
  mutable RelaxedCounter scalar_scans_;
  mutable RelaxedCounter delta_merges_;
};

}  // namespace hos::knn

#endif  // HOS_KNN_LINEAR_SCAN_H_
