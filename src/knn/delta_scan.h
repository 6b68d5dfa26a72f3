// Delta-scan helpers shared by every kNN backend's streaming-ingest path.
//
// An engine is an immutable snapshot over its base: the rows present when
// its SoA snapshot / index structure was built. Rows appended afterwards —
// the delta — are not in the structure, so exact answers come from the
// structure's result over the base merged with a scalar sweep over the
// delta rows; a rebuild replaces the engine whole. The sweep uses
// knn::SubspaceDistance, which the batched kernel is held bitwise-identical
// to (tests/kernels/), so a merged answer is bit-for-bit the answer a
// freshly built engine would produce: the per-row distances are the same
// doubles, and the k-smallest / within-radius selection over the union is
// order-insensitive under the backends' (distance, id) tie-breaking.

#ifndef HOS_KNN_DELTA_SCAN_H_
#define HOS_KNN_DELTA_SCAN_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/common/subspace.h"
#include "src/data/dataset.h"
#include "src/kernels/batched_distance.h"
#include "src/kernels/dataset_view.h"
#include "src/knn/knn_engine.h"
#include "src/knn/metric.h"

namespace hos::knn {

/// Offers every *live* dataset row in [begin, end) except `exclude` into
/// the collector (scalar metric path); tombstoned rows are skipped before
/// their distance is computed. Returns the number of distance computations
/// performed, the unit the backends' counters report.
uint64_t DeltaScanTopK(const data::Dataset& dataset, MetricKind metric,
                       std::span<const double> point, const Subspace& subspace,
                       data::PointId begin, data::PointId end,
                       std::optional<data::PointId> exclude,
                       kernels::TopKCollector* collector);

/// Appends every live dataset row in [begin, end) within `radius`
/// (inclusive) of the query to `out` (unsorted; callers re-sort the merged
/// result). Returns the number of distance computations performed.
uint64_t DeltaScanRange(const data::Dataset& dataset, MetricKind metric,
                        std::span<const double> point,
                        const Subspace& subspace, data::PointId begin,
                        data::PointId end, double radius,
                        std::vector<Neighbor>* out);

/// First row of the append delta of an engine whose base is `snapshot`:
/// rows [0, snapshot.num_points()) are served from the snapshot, the rest
/// by the scans above. Asserts the contract that keeps the base exact: no
/// snapshotted row was overwritten in place (Dataset::Set) after the build.
inline data::PointId DeltaBegin(const kernels::DatasetView& snapshot,
                                [[maybe_unused]] const data::Dataset& dataset) {
  assert(dataset.last_overwrite_version() <= snapshot.snapshot_version());
  return static_cast<data::PointId>(snapshot.num_points());
}

}  // namespace hos::knn

#endif  // HOS_KNN_DELTA_SCAN_H_
