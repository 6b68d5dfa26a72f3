// DatasetView: a structure-of-arrays (column-major) mirror of a row-major
// data::Dataset — the storage layout of the batched distance kernel
// (src/kernels/batched_distance.h). A subspace-masked distance touches a few
// dimensions of many points, so laying each dimension out contiguously turns
// the kernel's inner loop into a unit-stride sweep the compiler vectorizes;
// the row-major Dataset would stride by num_dims() instead.
//
// Positions are row ids in the default order (Build), the linear scan's
// layout. BuildInOrder lays the same rows out in a caller's order instead,
// recording a position -> row id map: the X-tree stores its snapshot leaf
// by leaf, so every leaf scan is one contiguous position range.
//
// A view is an independent snapshot: it stays valid (and consistent) if the
// source dataset later grows or is destroyed, but it does not track such
// changes. It records the dataset version it was built at
// (snapshot_version). A kNN engine built over a view serves rows
// [0, num_points()) from it as its *base*; rows appended afterwards are the
// engine's *delta*, covered by an exact scalar scan merged into the kernel
// results (src/knn/delta_scan.h). Overwriting a snapshotted row in place
// (Dataset::Set after the build) breaks that contract: the engines assert
// Dataset::last_overwrite_version() <= snapshot_version(), and a changed
// dataset gets a freshly built engine instead.

#ifndef HOS_KERNELS_DATASET_VIEW_H_
#define HOS_KERNELS_DATASET_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/data/dataset.h"

namespace hos::kernels {

class DatasetView {
 public:
  DatasetView() = default;

  /// Transposes `dataset` into column-major storage, position = row id.
  /// O(n·d). Records the dataset's version (snapshot_version).
  static DatasetView Build(const data::Dataset& dataset);

  /// Like Build, but position p holds row order[p]. `order` must be a
  /// permutation of [0, dataset.size()), so the view covers exactly the
  /// rows Build would, reordered.
  static DatasetView BuildInOrder(const data::Dataset& dataset,
                                  std::vector<data::PointId> order);

  size_t num_points() const { return num_points_; }
  int num_dims() const { return num_dims_; }
  bool empty() const { return num_points_ == 0; }

  /// Dataset::version() at the time the snapshot was taken.
  uint64_t snapshot_version() const { return snapshot_version_; }

  /// Contiguous values of one dimension across all points.
  const double* Column(int dim) const {
    return columns_.data() + static_cast<size_t>(dim) * num_points_;
  }

  /// The value at `position` (the row id itself in Build's order).
  double At(size_t position, int dim) const {
    return Column(dim)[position];
  }

  /// Position -> row id map; empty in Build's order.
  std::span<const data::PointId> row_ids() const { return row_ids_; }

  /// The row id stored at `position`.
  data::PointId RowAt(size_t position) const {
    return row_ids_.empty() ? static_cast<data::PointId>(position)
                            : row_ids_[position];
  }

 private:
  void Fill(const data::Dataset& dataset);

  size_t num_points_ = 0;
  int num_dims_ = 0;
  uint64_t snapshot_version_ = 0;
  std::vector<double> columns_;  // [dim * num_points + position]
  std::vector<data::PointId> row_ids_;
};

}  // namespace hos::kernels

#endif  // HOS_KERNELS_DATASET_VIEW_H_
