// BatchedSubspaceDistance: the vectorized subspace-masked distance kernel
// shared by every kNN backend (knn/linear_scan, index/idistance,
// index/va_file, index/xtree).
//
// Loop order: distances from one query point to a block of candidates are
// computed dimension-outer / candidate-inner over the column-major
// DatasetView, so the inner loop is a unit-stride (or gathered) sweep the
// compiler auto-vectorizes. Each candidate still accumulates its
// per-dimension terms in ascending dimension order — the same order
// knn::SubspaceDistance walks the mask — so kernel distances are *bitwise
// identical* to the scalar metric path; the differential suite
// (tests/kernels/) asserts this on every backend.
//
// Partial-distance early exit: all three metrics are monotone in the
// dimension set, so a block whose smallest partial accumulation already
// proves every candidate farther than `bound` is abandoned mid-way; its
// candidates report kPrunedDistance. The proof is exact even under the
// backends' (distance, id) tie-breaking: all screening happens in
// accumulation space against SelectionBound(bound) — for L1/L∞ the bound
// itself, for L2 the loosened square b·b·(1 + 8eps), which over-covers the
// rounding of b·b plus the final sqrt's half-ulp. Hence acc > SelectionBound
// implies fl(sqrt(acc)) > b *strictly*: a pruned candidate can neither beat
// the bound nor tie it, while every possible tie survives screening.
//
// The top-k scan entry points (ScanAllForTopK / ScanIdsForTopK /
// ScanRangeForTopK) screen each surviving candidate the same way, so only
// the rare near-bound candidates pay a square root; their admission then
// uses the exact fl(sqrt(acc)) — bit-identical to the scalar path's
// comparisons.
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

#include "src/common/subspace.h"
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

/// Distances from `query` to the candidates `ids`; out[i] receives the exact
/// distance of ids[i] or kPrunedDistance. `dims` is the subspace's ascending
/// dimension list (Subspace::Dims()); `bound` = +infinity disables the early
/// exit. Requires out.size() >= ids.size() and a view in Build's order
/// (ids index positions).
void BatchedSubspaceDistance(const DatasetView& view,
                             std::span<const double> query,
                             std::span<const int> dims,
                             knn::MetricKind metric,
                             std::span<const data::PointId> ids, double bound,
                             std::span<double> out);

/// Contiguous-id variant: candidates first .. first+count-1. The inner loop
/// is unit-stride, the fastest form of the kernel.
void BatchedSubspaceDistanceRange(const DatasetView& view,
                                  std::span<const double> query,
                                  std::span<const int> dims,
                                  knn::MetricKind metric, data::PointId first,
                                  size_t count, double bound,
                                  std::span<double> out);

/// Convenience overloads decoding the subspace per call; prefer the span
/// forms when one query issues many kernel calls.
void BatchedSubspaceDistance(const DatasetView& view,
                             std::span<const double> query,
                             const Subspace& subspace, knn::MetricKind metric,
                             std::span<const data::PointId> ids, double bound,
                             std::span<double> out);
void BatchedSubspaceDistanceRange(const DatasetView& view,
                                  std::span<const double> query,
                                  const Subspace& subspace,
                                  knn::MetricKind metric, data::PointId first,
                                  size_t count, double bound,
                                  std::span<double> out);

/// TopKCollector: the k-smallest (distance, id) selection every backend's
/// kNN loop performs, exposing the current k-th distance as the kernel's
/// early-exit bound. Admission is identical to the scalar WorstFirst
/// max-heaps it replaces: a candidate displaces the current worst when its
/// (distance, id) pair compares strictly smaller.
///
/// Tombstone filtering happens here, at admission: constructed with a
/// `live_filter` dataset, the collector silently rejects dead rows, so a
/// structure built before a delete serves exactly the answer a fresh build
/// on the survivors would (a dead candidate can neither enter the answer
/// nor tighten bound()). Backends pass the filter only when the dataset
/// actually has tombstones, keeping the common path branch-free.
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

/// Full top-k linear scan over every view point except `exclude`, blockwise
/// with the collector's evolving bound. Candidates are offered in ascending
/// id order, matching the scalar scan. Returns the number of candidates
/// examined (pruned included) — the unit the backends' distance counters
/// report. Requires a view in Build's order.
uint64_t ScanAllForTopK(const DatasetView& view, std::span<const double> query,
                        const Subspace& subspace, knn::MetricKind metric,
                        std::optional<data::PointId> exclude,
                        TopKCollector* collector);

/// Top-k over an explicit candidate list, offered in list order. Requires
/// a view in Build's order.
uint64_t ScanIdsForTopK(const DatasetView& view, std::span<const double> query,
                        const Subspace& subspace, knn::MetricKind metric,
                        std::span<const data::PointId> ids,
                        TopKCollector* collector);

/// Top-k over the view positions [first, first + count) — one leaf of the
/// X-tree's leaf-ordered view — read unit-stride and offered in position
/// order under the row ids they hold (DatasetView::RowAt). The position
/// holding `exclude` is skipped, neither offered nor counted. Returns the
/// candidates examined: `count`, less one when the excluded row lies in
/// the range. Requires a view built by BuildInOrder.
uint64_t ScanRangeForTopK(const DatasetView& view,
                          std::span<const double> query,
                          std::span<const int> dims, knn::MetricKind metric,
                          size_t first, size_t count,
                          std::optional<data::PointId> exclude,
                          TopKCollector* collector);

/// Query-points per fused scan block (the query-point-inner-inner unroll of
/// the multi-point kernel below): kQueryBlock accumulator rows of
/// kDistanceBlock doubles fit comfortably in L1 alongside one column block.
inline constexpr size_t kQueryBlock = 8;

/// One query row of a fused multi-point scan: a full-dimensional point, its
/// optional self-exclusion, and the collector receiving its candidates.
struct MultiPointQuery {
  const double* point = nullptr;
  std::optional<data::PointId> exclude;
  TopKCollector* collector = nullptr;
};

/// Fused top-k scan serving B query points in one pass over the view: the
/// loop order is dimension-outer / query-point / candidate-inner, so each
/// column block is read once from L1 for up to kQueryBlock query rows
/// instead of being re-streamed per point. Each point's candidates still
/// accumulate per-dimension terms in ascending dimension order against that
/// point's own collector bound, and a point's excluded id is skipped at
/// offer time — so every collector finishes with exactly the content a
/// sequential ScanAllForTopK would produce (the selection is
/// order-insensitive under (distance, id) tie-breaking and screening only
/// drops candidates provably beyond the bound). Returns the summed
/// per-point examined counts, matching B sequential scans. Requires a view
/// in Build's order.
uint64_t ScanAllForTopKMulti(const DatasetView& view,
                             std::span<const MultiPointQuery> queries,
                             const Subspace& subspace, knn::MetricKind metric);

/// Fused top-k over an explicit candidate list for B query points
/// (iDistance's shared-frontier refinement step). Each point's excluded id
/// is skipped at offer time; `ids` need not be pre-filtered per point.
/// Requires a view in Build's order.
uint64_t ScanIdsForTopKMulti(const DatasetView& view,
                             std::span<const MultiPointQuery> queries,
                             const Subspace& subspace, knn::MetricKind metric,
                             std::span<const data::PointId> ids);

}  // namespace hos::kernels

#endif  // HOS_KERNELS_BATCHED_DISTANCE_H_
