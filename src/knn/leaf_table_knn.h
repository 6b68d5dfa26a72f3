// LeafTableKnn: the one kNN engine. It answers exact kNN and range queries
// in any subspace over a kernels::DatasetView and the kernels::LeafTable
// that partitions it into boxed leaves: one vectorized pass over the leaf
// boxes, then contiguous kernel sweeps of the surviving leaves
// (kernels::LeafFilteredTopK / LeafFilteredRange). Both backends are this
// engine over different leaf tables: index::XTree's STR-packed leaves and
// LinearScanKnn's single leaf over every row.
//
// Streaming ingest: the engine is an immutable snapshot over its *base*,
// the rows present when its view was built. Rows appended afterwards — the
// *delta* — are not in any leaf, so each query offers them to the same
// collector (or appends them to the same range answer) through a scalar
// sweep with knn::SubspaceDistance, which the kernel is held
// bitwise-identical to (tests/kernels/). The per-row distances are the same
// doubles and the k-smallest / within-radius selection over the union is
// order-insensitive under the (distance, id) tie-break, so a merged answer
// is bit-for-bit the answer a freshly built engine would give. Rows
// tombstoned since the build are rejected at admission. A rebuild replaces
// the engine whole (HosMiner::PrepareRebuild); overwriting a snapshotted
// row in place is a contract violation, asserted in debug builds.

#ifndef HOS_KNN_LEAF_TABLE_KNN_H_
#define HOS_KNN_LEAF_TABLE_KNN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/atomic_counter.h"
#include "src/common/subspace.h"
#include "src/data/dataset.h"
#include "src/kernels/batched_distance.h"
#include "src/kernels/dataset_view.h"
#include "src/knn/knn_engine.h"
#include "src/knn/metric.h"

namespace hos::knn {

/// Exact kNN over a leaf table. The referenced dataset must outlive the
/// engine. Queries are const and race-free (relaxed counters), so one
/// engine serves every QueryService worker.
class LeafTableKnn : public KnnEngine {
 public:
  /// `view` snapshots `dataset`; `leaves` partitions a prefix of its
  /// positions (the rows past the last leaf are never swept). `backend`
  /// names the engine in backend_stats() and must outlive it (a literal).
  LeafTableKnn(const data::Dataset& dataset, MetricKind metric,
               kernels::DatasetView view, kernels::LeafTable leaves,
               const char* backend);

  /// Ascending (distance, id). Every leaf whose box is within the final
  /// k-th distance is swept, a leaf exactly at it too (it may hold a tie
  /// with a smaller id); then the delta is offered to the same collector.
  std::vector<Neighbor> Search(const KnnQuery& query) const final;

  /// Every live row within `radius` (inclusive), ascending (distance, id):
  /// the leaves whose box is within `radius`, then the delta.
  std::vector<Neighbor> RangeSearch(std::span<const double> point,
                                    const Subspace& subspace,
                                    double radius) const final;

  /// Rows the leaves hold.
  size_t size() const final { return leaves_.first.back(); }
  MetricKind metric() const final { return metric_; }
  uint64_t distance_computations() const final { return distance_count_; }
  /// Leaves swept by queries so far.
  uint64_t node_accesses() const { return node_access_count_; }
  KnnBackendStats backend_stats() const final;

  /// Rows covered by the snapshot (the dataset's size at the build); rows
  /// appended afterwards — [base_rows(), dataset.size()) — are the delta.
  size_t base_rows() const { return view_.num_points(); }

 protected:
  const data::Dataset& dataset() const { return *dataset_; }
  const kernels::DatasetView& view() const { return view_; }
  const kernels::LeafTable& leaves() const { return leaves_; }

 private:
  /// First row of the append delta. Asserts the contract that keeps the
  /// base exact: no snapshotted row was overwritten in place
  /// (Dataset::Set) after the build.
  data::PointId DeltaBegin() const;

  const data::Dataset* dataset_;
  MetricKind metric_;
  kernels::DatasetView view_;
  kernels::LeafTable leaves_;
  const char* backend_;
  mutable RelaxedCounter distance_count_;
  mutable RelaxedCounter node_access_count_;
  mutable RelaxedCounter kernel_scans_;
  mutable RelaxedCounter delta_merges_;
};

}  // namespace hos::knn

#endif  // HOS_KNN_LEAF_TABLE_KNN_H_
