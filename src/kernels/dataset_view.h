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
// (snapshot_version), which together with Dataset::last_overwrite_version
// decides exactly how a holder may keep using it (SplitBaseDelta below):
//
//  * rows only *appended* since the snapshot — the view still matches rows
//    [0, num_points()) bit-for-bit and serves as the *base*; the live rows
//    [num_points(), live.size()) are the *delta*, which the kNN backends
//    cover with an exact scalar scan merged into the kernel results;
//  * any row *overwritten in place* (Dataset::Set) since the snapshot — the
//    base itself is suspect and the view must not serve at all; callers
//    fall back to their scalar paths (and, as before the versioned-ingest
//    refactor, the X-tree's MBRs are silently stale under Set, so a
//    dataset must not be overwritten while engines built over it are in
//    use; engines log this fallback when they detect it).

#ifndef HOS_KERNELS_DATASET_VIEW_H_
#define HOS_KERNELS_DATASET_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/data/dataset.h"

namespace hos::kernels {

class DatasetView {
 public:
  DatasetView() = default;

  /// Transposes `dataset` into column-major storage, position = row id.
  /// O(n·d). Records the dataset's version so staleness is detected by
  /// mutation, not size.
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

/// Decomposition of a live dataset against a SoA snapshot: the rows the
/// snapshot still serves (the base) and where the un-snapshotted delta
/// starts. `base == nullptr` means the snapshot cannot serve at all (no
/// view, a foreign view, or an in-place overwrite since the snapshot) and
/// the caller must take its scalar path for every row.
struct BaseDeltaSplit {
  const DatasetView* base = nullptr;
  /// First live row not covered by `base`; rows [delta_begin, live.size())
  /// need the scalar delta scan. 0 when base is null.
  size_t delta_begin = 0;
};

/// The one staleness policy shared by every kNN backend (see the header
/// comment): the snapshot serves rows [0, view->num_points()) iff no
/// in-place overwrite happened after it was taken and the live dataset
/// still contains at least those rows.
inline BaseDeltaSplit SplitBaseDelta(
    const std::shared_ptr<const DatasetView>& view,
    const data::Dataset& live) {
  if (view == nullptr || view->num_points() > live.size() ||
      live.last_overwrite_version() > view->snapshot_version()) {
    return {};
  }
  return {view.get(), view->num_points()};
}

}  // namespace hos::kernels

#endif  // HOS_KERNELS_DATASET_VIEW_H_
