// LinearScanKnn: exact brute-force kNN, the "no index" baseline of the
// efficiency experiments (E8). It is the one kNN engine (LeafTableKnn) over
// a single leaf holding every row in id order, so every query sweeps the
// whole snapshot; only the engine's backend name, "linear_scan", sets it
// apart from the X-tree.

#ifndef HOS_KNN_LINEAR_SCAN_H_
#define HOS_KNN_LINEAR_SCAN_H_

#include "src/data/dataset.h"
#include "src/knn/leaf_table_knn.h"
#include "src/knn/metric.h"

namespace hos::knn {

/// Scans all points for every query. O(n·dim(s)) per query. The referenced
/// dataset must outlive the engine.
class LinearScanKnn : public LeafTableKnn {
 public:
  /// Snapshots `dataset` into the engine's own SoA view.
  LinearScanKnn(const data::Dataset& dataset, MetricKind metric);
};

}  // namespace hos::knn

#endif  // HOS_KNN_LINEAR_SCAN_H_
