// LinearScanKnn: exact brute-force kNN. Serves as the correctness oracle
// for the X-tree and as the "no index" baseline in the efficiency
// experiments (E8).
//
// The scan runs blockwise over a column-major SoA snapshot
// (kernels::DatasetView) through the shared BatchedSubspaceDistance kernel,
// with partial-distance early exit against the running k-th neighbour
// bound. Results are identical to the scalar per-point metric path
// (tests/kernels/ enforces this).
//
// Streaming ingest: the engine is an immutable snapshot. Rows appended to
// the dataset after construction (the delta) are merged in exactly via a
// scalar sweep (knn/delta_scan.h) and tombstoned rows are filtered at
// admission, so the engine keeps answering correctly while the dataset
// grows and shrinks; a rebuild replaces the engine whole
// (HosMiner::PrepareRebuild). Overwriting a snapshotted row in place is a
// contract violation, asserted in debug builds.

#ifndef HOS_KNN_LINEAR_SCAN_H_
#define HOS_KNN_LINEAR_SCAN_H_

#include "src/common/atomic_counter.h"
#include "src/kernels/dataset_view.h"
#include "src/knn/knn_engine.h"

namespace hos::knn {

/// Scans all points for every query. O(n·dim(s)) per query. The referenced
/// dataset must outlive the engine.
class LinearScanKnn : public KnnEngine {
 public:
  /// Snapshots `dataset` into the engine's own SoA view.
  LinearScanKnn(const data::Dataset& dataset, MetricKind metric);

  std::vector<Neighbor> Search(const KnnQuery& query) const override;

  std::vector<Neighbor> RangeSearch(std::span<const double> point,
                                    const Subspace& subspace,
                                    double radius) const override;

  /// Fused multi-point scan: one pass over the SoA base serves the whole
  /// batch (kernels::ScanAllForTopKMulti), then each point merges the
  /// append delta scalar-exactly. Answers are bitwise identical to the
  /// per-point Search loop.
  std::vector<std::vector<Neighbor>> SearchBatch(
      std::span<const BatchPointQuery> points, const Subspace& subspace,
      int k) const override;

  size_t size() const override { return dataset_.size(); }
  MetricKind metric() const override { return metric_; }
  uint64_t distance_computations() const override { return distance_count_; }
  KnnBackendStats backend_stats() const override;

 private:
  const data::Dataset& dataset_;
  MetricKind metric_;
  kernels::DatasetView view_;
  mutable RelaxedCounter distance_count_;  // race-free under concurrent Search
  mutable RelaxedCounter kernel_scans_;
  mutable RelaxedCounter delta_merges_;
};

}  // namespace hos::knn

#endif  // HOS_KNN_LINEAR_SCAN_H_
