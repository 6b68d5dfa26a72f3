#include "src/kernels/batched_distance.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

namespace hos::kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Dimensions accumulated between early-exit checks.
constexpr size_t kDimChunk = 8;

/// Candidates whose accumulators stay in vector registers across a
/// dimension chunk: four AVX2 registers. GCC 12 keeps a 32-wide tile in
/// memory instead.
constexpr size_t kTile = 16;

/// Independent lanes of BlockMin, so the reduction vectorizes instead of
/// running one serial min chain.
constexpr size_t kMinLanes = 8;

/// Two lanes of BlockMin: a GCC/Clang vector extension type, because
/// `a < b ? a : b` on it is one (v)minpd, which the auto-vectorizer does not
/// form from a min reduction without -ffast-math. Two doubles fill an SSE2
/// register, which every x86-64 target has; a type wider than the target's
/// registers goes through the stack.
using MinPair = double __attribute__((vector_size(2 * sizeof(double))));

template <knn::MetricKind kMetric>
inline void Accumulate(double& acc, double diff) {
  if constexpr (kMetric == knn::MetricKind::kL1) {
    acc += std::abs(diff);
  } else if constexpr (kMetric == knn::MetricKind::kL2) {
    acc += diff * diff;
  } else {
    acc = std::max(acc, std::abs(diff));
  }
}

template <knn::MetricKind kMetric>
inline double Finalize(double acc) {
  if constexpr (kMetric == knn::MetricKind::kL2) return std::sqrt(acc);
  return acc;
}

/// The distance bound translated into accumulation space, loosened so that
/// acc > SelectionBound(bound) proves fl(sqrt(acc)) > bound *strictly* (no
/// rounding of bound*bound may turn a potential tie into a prune — ties can
/// still win their id break). acc <= SelectionBound admits false positives,
/// which the caller settles with one exact sqrt; so selection never takes a
/// square root for candidates that are provably out.
template <knn::MetricKind kMetric>
inline double SelectionBound(double bound) {
  if constexpr (kMetric == knn::MetricKind::kL2) {
    // (1 + 8eps) dominates the rounding of bound*bound plus the half-ulp of
    // the final sqrt; see the inequality chain in the header comment.
    constexpr double kLoosen =
        1.0 + 8.0 * std::numeric_limits<double>::epsilon();
    return bound * bound * kLoosen;
  } else {
    return bound;
  }
}

/// Every leaf's min-accumulation from `query` in the subspace `dims`: the
/// gap from the query to the leaf's box, accumulated per dimension exactly
/// as Accumulate sums a row's terms and in the same ascending order, so no
/// row of the leaf accumulates less (the header comment has the argument).
/// One unit-stride pass over the leaves per dimension.
template <knn::MetricKind kMetric>
std::vector<double> LeafMinAccumulations(const LeafTable& leaves,
                                         const double* query,
                                         std::span<const int> dims) {
  const size_t num_leaves = leaves.num_leaves();
  std::vector<double> minacc(num_leaves, 0.0);
  for (const int dim : dims) {
    const size_t offset = static_cast<size_t>(dim) * num_leaves;
    const double* lo = leaves.lo.data() + offset;
    const double* hi = leaves.hi.data() + offset;
    const double qv = query[dim];
    for (size_t l = 0; l < num_leaves; ++l) {
      Accumulate<kMetric>(minacc[l],
                          std::max(0.0, std::max(lo[l] - qv, qv - hi[l])));
    }
  }
  return minacc;
}

/// The skip test of the leaf filter: true when every member of a leaf with
/// this min-accumulation is provably strictly beyond `bound_acc`, a bound
/// already translated by SelectionBound. A leaf exactly at it survives.
inline bool LeafBeyond(double minacc, double bound_acc) {
  return minacc > bound_acc;
}

/// Calls visit(lo, hi) for each maximal run [lo, hi) of consecutive leaves
/// that pass `keep(leaf)`, in leaf order. keep is asked again after each
/// visit, so a run is decided by the state its predecessors left.
template <typename KeepFn, typename VisitFn>
void ForEachLeafRun(size_t num_leaves, const KeepFn& keep,
                    const VisitFn& visit) {
  size_t l = 0;
  while (l < num_leaves) {
    if (!keep(l)) {
      ++l;
      continue;
    }
    size_t r = l + 1;
    while (r < num_leaves && keep(r)) ++r;
    visit(l, r);
    l = r;
  }
}

/// The smallest of acc[0, m), m >= 1, reduced in kMinLanes independent
/// lanes. Exact: every accumulation is a non-NaN value >= +0 (it starts at
/// +0 and only adds |d|, d² or takes max(·, |d|)), and the minimum of such
/// values does not depend on the order they are compared in.
inline double BlockMin(const double* acc, size_t m) {
  constexpr size_t kPairs = kMinLanes / 2;
  MinPair lane[kPairs];
  for (MinPair& pair : lane) pair = MinPair{kInf, kInf};
  size_t j = 0;
  for (; j + kMinLanes <= m; j += kMinLanes) {
    for (size_t p = 0; p < kPairs; ++p) {
      MinPair x;
      std::memcpy(&x, acc + j + 2 * p, sizeof x);
      lane[p] = x < lane[p] ? x : lane[p];
    }
  }
  for (size_t p = 1; p < kPairs; ++p) {
    lane[0] = lane[p] < lane[0] ? lane[p] : lane[0];
  }
  double min = std::min(lane[0][0], lane[0][1]);
  for (; j < m; ++j) min = std::min(min, acc[j]);
  return min;
}

/// Adds the terms of dimensions [c, chunk_end) to the `count` accumulators
/// of view positions [first, first + count), in ascending dimension order.
template <knn::MetricKind kMetric>
inline void AccumulateChunk(const DatasetView& view, const double* query,
                            std::span<const int> dims, size_t c,
                            size_t chunk_end, data::PointId first,
                            size_t count, double* acc) {
  for (; c < chunk_end; ++c) {
    const double* base = view.Column(dims[c]) + first;
    const double qv = query[dims[c]];
    for (size_t j = 0; j < count; ++j) {
      Accumulate<kMetric>(acc[j], qv - base[j]);
    }
  }
}

/// The shared accumulation loop of both block kernels: sums the per-
/// dimension terms of the m candidates at view positions [first, first + m)
/// in ascending dimension order (the bitwise-identity contract with the
/// scalar path), checking between dimension chunks whether even the
/// block's smallest accumulation already exceeds `threshold` — the bound
/// translated into accumulation space by SelectionBound, so exceeding it
/// proves every final distance strictly greater than the caller's distance
/// bound. Returns false when the block was abandoned that way.
///
/// Within a chunk, each kTile-candidate tile is loaded into a local array
/// once, swept over the chunk's dimensions in registers and stored once;
/// the block's last m % kTile candidates are swept in place. Tiling only
/// regroups candidates, so every accumulation and every check is the one
/// the untiled loop computes.
template <knn::MetricKind kMetric>
bool AccumulateBlock(const DatasetView& view, const double* query,
                     std::span<const int> dims, data::PointId first,
                     size_t m, double threshold, double* acc) {
  for (size_t j = 0; j < m; ++j) acc[j] = 0.0;

  const size_t num_dims = dims.size();
  const bool bounded = threshold < kInf;
  const size_t tiled = m - m % kTile;
  size_t c = 0;
  while (c < num_dims) {
    const size_t chunk_end = std::min(c + kDimChunk, num_dims);
    for (size_t t = 0; t < tiled; t += kTile) {
      double tile[kTile];
      for (size_t j = 0; j < kTile; ++j) tile[j] = acc[t + j];
      AccumulateChunk<kMetric>(view, query, dims, c, chunk_end,
                               first + static_cast<data::PointId>(t), kTile,
                               tile);
      for (size_t j = 0; j < kTile; ++j) acc[t + j] = tile[j];
    }
    AccumulateChunk<kMetric>(view, query, dims, c, chunk_end,
                             first + static_cast<data::PointId>(tiled),
                             m - tiled, acc + tiled);
    c = chunk_end;
    if (bounded && c < num_dims && BlockMin(acc, m) > threshold) return false;
  }
  return true;
}

/// One block of m <= kDistanceBlock candidates, dimension-outer /
/// candidate-inner, read unit-stride from position `first`.
template <knn::MetricKind kMetric>
void DistanceBlock(const DatasetView& view, const double* query,
                   std::span<const int> dims, data::PointId first, size_t m,
                   double bound, double* out) {
  double acc[kDistanceBlock];
  if (!AccumulateBlock<kMetric>(view, query, dims, first, m,
                                SelectionBound<kMetric>(bound), acc)) {
    for (size_t j = 0; j < m; ++j) out[j] = kPrunedDistance;
    return;
  }
  for (size_t j = 0; j < m; ++j) out[j] = Finalize<kMetric>(acc[j]);
}

/// Top-k selection block: like DistanceBlock, but candidates are offered to
/// `collector` directly and all screening happens in accumulation space
/// (squared distances for L2), so the per-candidate square root is paid only
/// for candidates that might be admitted. Offers run in lane order — the
/// scalar scan's admission sequence — with lane j offered under ids[j], the
/// view's row id at position first + j.
template <knn::MetricKind kMetric>
void TopKBlock(const DatasetView& view, const double* query,
               std::span<const int> dims, const data::PointId* ids,
               data::PointId first, size_t m, TopKCollector* collector) {
  const double bound = collector->bound();
  const double bound_acc = SelectionBound<kMetric>(bound);
  double acc[kDistanceBlock];
  if (!AccumulateBlock<kMetric>(view, query, dims, first, m, bound_acc,
                                acc)) {
    return;  // whole block provably beyond the k-th neighbour
  }
  if (BlockMin(acc, m) > bound_acc) return;  // no admissible candidate
  for (size_t j = 0; j < m; ++j) {
    if (acc[j] <= bound_acc) {
      const double dist = Finalize<kMetric>(acc[j]);
      // dist > bound can never be admitted (stale bounds only loosen this);
      // dist == bound may still win its id tie-break inside Offer.
      if (dist <= bound) collector->Offer(ids[j], dist);
    }
  }
}

/// Sweeps the positions [lo, hi) of a leaf-ordered view in kernel blocks,
/// offering under the row ids held there, around the position `skip`
/// (neither offered nor counted). Returns the candidates examined.
template <knn::MetricKind kMetric>
uint64_t SweepForTopK(const DatasetView& view, const double* query,
                      std::span<const int> dims, size_t lo, size_t hi,
                      size_t skip, TopKCollector* collector) {
  const data::PointId* rows = view.row_ids().data();
  auto sweep = [&](size_t begin, size_t end) {
    for (size_t start = begin; start < end; start += kDistanceBlock) {
      const size_t m = std::min(kDistanceBlock, end - start);
      TopKBlock<kMetric>(view, query, dims, rows + start,
                         static_cast<data::PointId>(start), m, collector);
    }
  };
  if (skip < lo || skip >= hi) {
    sweep(lo, hi);
    return hi - lo;
  }
  sweep(lo, skip);
  sweep(skip + 1, hi);
  return hi - lo - 1;
}

template <knn::MetricKind kMetric>
LeafScanCounts LeafFilteredTopKImpl(const DatasetView& view,
                                    const LeafTable& leaves,
                                    const double* query,
                                    std::span<const int> dims,
                                    std::optional<data::PointId> exclude,
                                    TopKCollector* collector) {
  LeafScanCounts counts;
  const size_t num_leaves = leaves.num_leaves();
  if (num_leaves == 0) return counts;
  const std::vector<double> minacc =
      LeafMinAccumulations<kMetric>(leaves, query, dims);

  // Positions past the leaves are never swept, so an excluded row outside
  // them needs no skip.
  const size_t skip = exclude && *exclude < leaves.position.size()
                          ? leaves.position[*exclude]
                          : view.num_points();
  auto scan = [&](size_t lo, size_t hi) {
    counts.examined += SweepForTopK<kMetric>(view, query, dims,
                                             leaves.first[lo],
                                             leaves.first[hi], skip,
                                             collector);
    counts.leaves += hi - lo;
  };

  // The nearest box first, so the bound is tight before the sweep starts.
  const size_t seed = static_cast<size_t>(
      std::min_element(minacc.begin(), minacc.end()) - minacc.begin());
  scan(seed, seed + 1);
  double bound_acc = SelectionBound<kMetric>(collector->bound());
  ForEachLeafRun(
      num_leaves,
      [&](size_t l) { return l != seed && !LeafBeyond(minacc[l], bound_acc); },
      [&](size_t lo, size_t hi) {
        scan(lo, hi);
        bound_acc = SelectionBound<kMetric>(collector->bound());
      });
  return counts;
}

template <knn::MetricKind kMetric>
LeafScanCounts LeafFilteredRangeImpl(const DatasetView& view,
                                     const LeafTable& leaves,
                                     const double* query,
                                     std::span<const int> dims, double radius,
                                     const data::Dataset* live_filter,
                                     std::vector<knn::Neighbor>* out) {
  LeafScanCounts counts;
  const std::vector<double> minacc =
      LeafMinAccumulations<kMetric>(leaves, query, dims);
  const data::PointId* rows = view.row_ids().data();
  const double bound_acc = SelectionBound<kMetric>(radius);
  double dist[kDistanceBlock];
  ForEachLeafRun(
      leaves.num_leaves(),
      [&](size_t l) { return !LeafBeyond(minacc[l], bound_acc); },
      [&](size_t lo, size_t hi) {
        const size_t end = leaves.first[hi];
        for (size_t start = leaves.first[lo]; start < end;
             start += kDistanceBlock) {
          const size_t m = std::min(kDistanceBlock, end - start);
          DistanceBlock<kMetric>(view, query, dims,
                                 static_cast<data::PointId>(start), m, radius,
                                 dist);
          for (size_t j = 0; j < m; ++j) {
            if (dist[j] <= radius) {
              const data::PointId id = rows[start + j];
              if (live_filter != nullptr && !live_filter->IsLive(id)) continue;
              out->push_back({id, dist[j]});
            }
          }
        }
        counts.examined += end - leaves.first[lo];
        counts.leaves += hi - lo;
      });
  return counts;
}

}  // namespace

std::vector<knn::Neighbor> TopKCollector::TakeSorted() {
  std::vector<knn::Neighbor> out(heap_.size());
  for (size_t i = heap_.size(); i-- > 0;) {
    out[i] = heap_.top();
    heap_.pop();
  }
  return out;
}

void FitLeafBoxes(const DatasetView& view, LeafTable* leaves) {
  const size_t num_leaves = leaves->num_leaves();
  const auto dims = static_cast<size_t>(view.num_dims());
  leaves->lo.resize(num_leaves * dims);
  leaves->hi.resize(num_leaves * dims);
  // One unit-stride pass per column.
  for (size_t dim = 0; dim < dims; ++dim) {
    const double* column = view.Column(static_cast<int>(dim));
    for (size_t l = 0; l < num_leaves; ++l) {
      double lo = column[leaves->first[l]];
      double hi = lo;
      for (size_t pos = leaves->first[l] + 1; pos < leaves->first[l + 1];
           ++pos) {
        lo = std::min(lo, column[pos]);
        hi = std::max(hi, column[pos]);
      }
      leaves->lo[dim * num_leaves + l] = lo;
      leaves->hi[dim * num_leaves + l] = hi;
    }
  }
}

LeafScanCounts LeafFilteredTopK(const DatasetView& view,
                                const LeafTable& leaves,
                                std::span<const double> query,
                                std::span<const int> dims,
                                knn::MetricKind metric,
                                std::optional<data::PointId> exclude,
                                TopKCollector* collector) {
  assert(leaves.first.back() <= view.num_points());
  switch (metric) {
    case knn::MetricKind::kL1:
      return LeafFilteredTopKImpl<knn::MetricKind::kL1>(
          view, leaves, query.data(), dims, exclude, collector);
    case knn::MetricKind::kL2:
      return LeafFilteredTopKImpl<knn::MetricKind::kL2>(
          view, leaves, query.data(), dims, exclude, collector);
    case knn::MetricKind::kLInf:
      return LeafFilteredTopKImpl<knn::MetricKind::kLInf>(
          view, leaves, query.data(), dims, exclude, collector);
  }
  return {};
}

LeafScanCounts LeafFilteredRange(const DatasetView& view,
                                 const LeafTable& leaves,
                                 std::span<const double> query,
                                 std::span<const int> dims,
                                 knn::MetricKind metric, double radius,
                                 const data::Dataset* live_filter,
                                 std::vector<knn::Neighbor>* out) {
  assert(leaves.first.back() <= view.num_points());
  switch (metric) {
    case knn::MetricKind::kL1:
      return LeafFilteredRangeImpl<knn::MetricKind::kL1>(
          view, leaves, query.data(), dims, radius, live_filter, out);
    case knn::MetricKind::kL2:
      return LeafFilteredRangeImpl<knn::MetricKind::kL2>(
          view, leaves, query.data(), dims, radius, live_filter, out);
    case knn::MetricKind::kLInf:
      return LeafFilteredRangeImpl<knn::MetricKind::kLInf>(
          view, leaves, query.data(), dims, radius, live_filter, out);
  }
  return {};
}

}  // namespace hos::kernels
