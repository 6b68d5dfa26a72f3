// The vectorized subspace-masked distance kernel behind the one kNN engine
// (knn/leaf_table_knn): every query sweeps the leaves of a LeafTable over a
// DatasetView, the X-tree's STR leaves or the linear scan's single leaf.
//
// Loop order: distances from one query point to a block of up to 64
// candidates are computed in chunks of 8 dimensions over the column-major
// DatasetView. Within a chunk, each tile of 16 candidates is loaded into
// vector registers once, advanced through the chunk's dimensions (each a
// unit-stride, auto-vectorized read of one column) and stored once; the
// block's last m % 16 candidates run the same dimension-outer /
// candidate-inner loop in memory. Each candidate still accumulates its
// per-dimension terms in ascending dimension order — the same order
// knn::SubspaceDistance walks the mask — so kernel distances are *bitwise
// identical* to the scalar metric path; the differential suite
// (tests/kernels/) asserts this on every leaf layout.
//
// Block minima (the early-exit test below and the top-k screen) are
// reduced in eight independent vector lanes, not one serial min chain.
// That is exact too: every accumulation is a non-NaN value >= +0, and the
// minimum of such values does not depend on the order of comparison.
//
// Partial-distance early exit: all three metrics are monotone in the
// dimension set, so a block whose smallest partial accumulation already
// proves every candidate farther than `bound` is abandoned mid-way; its
// candidates report kPrunedDistance. The proof is exact even under the
// engine's (distance, id) tie-breaking: all screening happens in
// accumulation space against SelectionBound(bound) — for L1/L∞ the bound
// itself, for L2 the loosened square b·b·(1 + 8eps), which over-covers the
// rounding of b·b plus the final sqrt's half-ulp. Hence acc > SelectionBound
// implies fl(sqrt(acc)) > b *strictly*: a pruned candidate can neither beat
// the bound nor tie it, while every possible tie survives screening.
//
// The top-k scan (LeafFilteredTopK) screens each surviving candidate the
// same way, so only the rare near-bound candidates pay a square root; their
// admission then uses the exact fl(sqrt(acc)) — bit-identical to the scalar
// path's comparisons.
//
// Leaf filter (LeafFilteredTopK / LeafFilteredRange): a view comes with one
// box per leaf (LeafTable), and a query first computes every
// leaf's min-accumulation — the per-dimension gap from the query to the box,
// accumulated like a row's terms, in ascending dimension order — and skips
// a leaf only when that exceeds SelectionBound(bound). The skip is exact:
//  * every row x of a leaf lies inside its box, so per dimension
//    |fl(q − x)| >= fl(gap) (rounding is monotone, and the gap is
//    fl(lo − q), fl(q − hi) or 0);
//  * both sums start at 0 and add their terms in the same order, and every
//    step (+, the square, max) is monotone under rounding, so the row's
//    accumulation is at least the leaf's min-accumulation;
//  * hence minacc > SelectionBound(bound) proves every member *strictly*
//    beyond the bound, so no member could be admitted, not even on a tie.
// A leaf exactly at the bound is still scanned, so cross-leaf ties keep
// their id break.
//
// Caveat: kPrunedDistance is +infinity, so a candidate whose *true* distance
// is infinite (infinite coordinates) is indistinguishable from a pruned one.
// Both are rejected by every caller, so answers only differ on datasets with
// non-finite coordinates, which the system does not support.

#ifndef HOS_KERNELS_BATCHED_DISTANCE_H_
#define HOS_KERNELS_BATCHED_DISTANCE_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "src/data/dataset.h"
#include "src/kernels/dataset_view.h"
#include "src/knn/knn_engine.h"
#include "src/knn/metric.h"

namespace hos::kernels {

/// Candidates per kernel block (the unroll width of the inner loop).
inline constexpr size_t kDistanceBlock = 64;

/// Sentinel reported for candidates discarded by partial-distance early
/// exit: distance proven strictly greater than the bound.
inline constexpr double kPrunedDistance =
    std::numeric_limits<double>::infinity();

/// TopKCollector: the k-smallest (distance, id) selection the kNN engine
/// performs, exposing the current k-th distance as the kernel's
/// early-exit bound. Admission is identical to the scalar WorstFirst
/// max-heaps it replaces: a candidate displaces the current worst when its
/// (distance, id) pair compares strictly smaller.
///
/// Tombstone filtering happens here, at admission: constructed with a
/// `live_filter` dataset, the collector silently rejects dead rows, so a
/// structure built before a delete serves exactly the answer a fresh build
/// on the survivors would (a dead candidate can neither enter the answer
/// nor tighten bound()). The engine passes the filter only when the
/// dataset actually has tombstones, keeping the common path branch-free.
class TopKCollector {
 public:
  explicit TopKCollector(size_t k) : TopKCollector(k, nullptr) {}
  TopKCollector(size_t k, const data::Dataset* live_filter)
      : k_(k), live_filter_(live_filter) {}

  void Offer(data::PointId id, double distance) {
    if (k_ == 0) return;
    if (live_filter_ != nullptr && !live_filter_->IsLive(id)) return;
    if (heap_.size() < k_) {
      heap_.push({id, distance});
      return;
    }
    const knn::Neighbor& top = heap_.top();
    if (distance < top.distance ||
        (distance == top.distance && id < top.id)) {
      heap_.pop();
      heap_.push({id, distance});
    }
  }

  size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }
  bool full() const { return heap_.size() == k_; }

  /// Largest retained distance; +infinity when empty.
  double worst() const {
    return heap_.empty() ? kPrunedDistance : heap_.top().distance;
  }

  /// Early-exit bound: the k-th smallest distance once k candidates are
  /// held, +infinity before that (nothing may be pruned yet), -infinity for
  /// k = 0 (nothing is admissible).
  double bound() const {
    if (k_ == 0) return -std::numeric_limits<double>::infinity();
    return full() ? heap_.top().distance : kPrunedDistance;
  }

  /// Destructive extraction in ascending (distance, id) order.
  std::vector<knn::Neighbor> TakeSorted();

 private:
  /// Farthest (then highest id) on top — the eviction candidate.
  struct WorstFirst {
    bool operator()(const knn::Neighbor& a, const knn::Neighbor& b) const {
      if (a.distance != b.distance) return a.distance < b.distance;
      return a.id < b.id;
    }
  };

  size_t k_;
  const data::Dataset* live_filter_ = nullptr;
  std::priority_queue<knn::Neighbor, std::vector<knn::Neighbor>, WorstFirst>
      heap_;
};

/// The leaves of a view as structure-of-arrays boxes: leaf l owns the view
/// positions [first[l], first[l + 1]), and every row there lies inside
/// [lo, hi] in every dimension. The X-tree's STR bulk load makes one leaf
/// per tile (XTree::BulkLoad); the linear scan has a single leaf over every
/// row, with infinite bounds (knn::LinearScanKnn).
struct LeafTable {
  /// num_leaves() + 1 entries: each leaf's first position, then the end of
  /// the last leaf. Positions from there on hold rows outside every leaf.
  std::vector<size_t> first{0};
  /// Box bounds, dimension-major: [dim * num_leaves() + leaf].
  std::vector<double> lo;
  std::vector<double> hi;
  /// Row id -> view position, the inverse of DatasetView::row_ids().
  std::vector<data::PointId> position;

  size_t num_leaves() const { return first.size() - 1; }
};

/// Sets every leaf's box to the tight bounds of the values its positions
/// hold in `view`; `leaves->first` must already be set.
void FitLeafBoxes(const DatasetView& view, LeafTable* leaves);

/// Work done by one leaf-filtered query.
struct LeafScanCounts {
  /// Candidates examined, pruned included (the distance-counter unit).
  uint64_t examined = 0;
  /// Leaves whose positions were swept.
  uint64_t leaves = 0;
};

/// Exact top-k over the leaves of a view. One pass computes
/// every leaf's min-accumulation (one unit-stride sweep per dimension of
/// `dims`); the leaf with the smallest, lowest index on ties, is scanned
/// first to seed the collector's bound; then the other leaves are swept in
/// position order, skipping a leaf only when its min-accumulation exceeds
/// the bound read at the start of each run of consecutive surviving
/// leaves (see the header comment for why the skip is exact). Each run is
/// one contiguous kernel range, offered in position order under the row
/// ids it holds. The position holding `exclude` is skipped, neither offered
/// nor counted. The collector's content is exactly what a scan of every
/// leaf would leave.
LeafScanCounts LeafFilteredTopK(const DatasetView& view,
                                const LeafTable& leaves,
                                std::span<const double> query,
                                std::span<const int> dims,
                                knn::MetricKind metric,
                                std::optional<data::PointId> exclude,
                                TopKCollector* collector);

/// Every leaf row within `radius` (inclusive) of `query`, appended to `out`
/// in position order with its exact distance; rows dead in `live_filter`
/// (when given) are left out. Leaves whose min-accumulation exceeds
/// SelectionBound(radius) are skipped, the rest swept in runs as in
/// LeafFilteredTopK.
LeafScanCounts LeafFilteredRange(const DatasetView& view,
                                 const LeafTable& leaves,
                                 std::span<const double> query,
                                 std::span<const int> dims,
                                 knn::MetricKind metric, double radius,
                                 const data::Dataset* live_filter,
                                 std::vector<knn::Neighbor>* out);

}  // namespace hos::kernels

#endif  // HOS_KERNELS_BATCHED_DISTANCE_H_
