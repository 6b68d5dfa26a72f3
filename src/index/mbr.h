// Minimum bounding rectangle (MBR) in d dimensions — the geometric
// primitive of the X-tree. Distances can be evaluated over an arbitrary
// subspace, which is what lets one full-dimensional index answer kNN in
// every subspace (paper §3: "X-tree indexing ... to facilitate k-NN search
// in every subspace").

#ifndef HOS_INDEX_MBR_H_
#define HOS_INDEX_MBR_H_

#include <span>
#include <string>
#include <vector>

#include "src/common/subspace.h"
#include "src/knn/metric.h"

namespace hos::index {

/// Axis-aligned box. A default-expanded (empty) Mbr has inverted bounds and
/// absorbs the first point/box it is expanded with.
class Mbr {
 public:
  /// Empty (inverted) box over `num_dims` dimensions.
  explicit Mbr(int num_dims);

  /// Degenerate box covering exactly one point.
  static Mbr OfPoint(std::span<const double> point);

  int num_dims() const { return static_cast<int>(min_.size()); }
  bool IsEmpty() const { return empty_; }

  double min(int dim) const { return min_[dim]; }
  double max(int dim) const { return max_[dim]; }
  double Extent(int dim) const { return max_[dim] - min_[dim]; }

  /// Grows to cover `point` / `other`.
  void Expand(std::span<const double> point);
  void Expand(const Mbr& other);

  /// Sum of edge lengths (the R*-tree "margin" criterion).
  double Margin() const;

  /// Product of edge lengths. Comparative use only.
  double Area() const;

  /// Area of the intersection with `other` (0 when disjoint).
  double IntersectionArea(const Mbr& other) const;

  /// True when the boxes share any volume (boundary contact counts).
  bool Intersects(const Mbr& other) const;

  bool ContainsPoint(std::span<const double> point) const;
  bool ContainsMbr(const Mbr& other) const;

  /// Smallest possible distance from `point` to any point inside the box,
  /// measured only over the dimensions of `subspace`: for any point q in
  /// the box, dist_s(point, q) >= MinDistance(point, s). The X-tree's leaf
  /// filter applies this bound, computed in accumulation space for all
  /// leaves at once (kernels::LeafFilteredTopK).
  double MinDistance(std::span<const double> point, const Subspace& subspace,
                     knn::MetricKind metric) const;

  /// Largest possible distance from `point` to a corner of the box over
  /// `subspace` — an upper bound used by tests.
  double MaxDistance(std::span<const double> point, const Subspace& subspace,
                     knn::MetricKind metric) const;

  std::string ToString() const;

 private:
  std::vector<double> min_;
  std::vector<double> max_;
  bool empty_ = true;
};

}  // namespace hos::index

#endif  // HOS_INDEX_MBR_H_
