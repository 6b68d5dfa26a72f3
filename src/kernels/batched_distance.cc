#include "src/kernels/batched_distance.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hos::kernels {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Dimensions accumulated between early-exit checks.
constexpr size_t kDimChunk = 8;

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

/// The shared accumulation loop of both block kernels: sums the per-
/// dimension terms of the m candidates at view positions [first, first + m)
/// in ascending dimension order (the bitwise-identity contract with the
/// scalar path), checking between dimension chunks whether even the
/// block's smallest accumulation already exceeds `threshold` — the bound
/// translated into accumulation space by SelectionBound, so exceeding it
/// proves every final distance strictly greater than the caller's distance
/// bound. Returns false when the block was abandoned that way.
template <knn::MetricKind kMetric>
bool AccumulateBlock(const DatasetView& view, const double* query,
                     std::span<const int> dims, data::PointId first,
                     size_t m, double threshold, double* acc) {
  for (size_t j = 0; j < m; ++j) acc[j] = 0.0;

  const size_t num_dims = dims.size();
  const bool bounded = threshold < kInf;
  size_t c = 0;
  while (c < num_dims) {
    const size_t chunk_end = std::min(c + kDimChunk, num_dims);
    for (; c < chunk_end; ++c) {
      const double* base = view.Column(dims[c]) + first;
      const double qv = query[dims[c]];
      for (size_t j = 0; j < m; ++j) {
        Accumulate<kMetric>(acc[j], qv - base[j]);
      }
    }
    if (bounded && c < num_dims) {
      double partial = acc[0];
      for (size_t j = 1; j < m; ++j) partial = std::min(partial, acc[j]);
      if (partial > threshold) return false;
    }
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
/// scalar scan's admission sequence. kMapped offers lane j under ids[j], a
/// reordered view's position -> row id map, instead of the position
/// first + j.
template <knn::MetricKind kMetric, bool kMapped>
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
  double closest = acc[0];
  for (size_t j = 1; j < m; ++j) closest = std::min(closest, acc[j]);
  if (closest > bound_acc) return;  // no admissible candidate in the block
  for (size_t j = 0; j < m; ++j) {
    if (acc[j] <= bound_acc) {
      const double dist = Finalize<kMetric>(acc[j]);
      // dist > bound can never be admitted (stale bounds only loosen this);
      // dist == bound may still win its id tie-break inside Offer.
      if (dist <= bound) {
        collector->Offer(
            kMapped ? ids[j] : first + static_cast<data::PointId>(j), dist);
      }
    }
  }
}

/// One (query-block, candidate-block) tile of the fused multi-point scan:
/// up to kQueryBlock query rows against up to kDistanceBlock candidates.
/// Dimension-outer / query-point / candidate-inner — each column block is
/// loaded once and swept for every still-active query row. Per point the
/// arithmetic is exactly TopKBlock's: ascending-dimension accumulation,
/// screening in accumulation space against that point's SelectionBound, one
/// exact Finalize per near-bound candidate, offers in lane order. A point
/// whose block-minimum accumulation exceeds its bound between dimension
/// chunks goes inactive for the rest of the tile (no offers — the whole
/// block is provably beyond its k-th neighbour); the tile is abandoned when
/// every point is inactive. A point's excluded id is skipped at offer time
/// rather than by segment splitting, which changes pruning opportunities
/// but never collector content.
template <knn::MetricKind kMetric>
void MultiTopKBlock(const DatasetView& view,
                    std::span<const MultiPointQuery> queries,
                    std::span<const int> dims, data::PointId first,
                    size_t m) {
  const size_t nq = queries.size();
  double acc[kQueryBlock][kDistanceBlock];
  double bound[kQueryBlock];
  double bound_acc[kQueryBlock];
  bool active[kQueryBlock];
  size_t num_active = nq;
  for (size_t q = 0; q < nq; ++q) {
    for (size_t j = 0; j < m; ++j) acc[q][j] = 0.0;
    bound[q] = queries[q].collector->bound();
    bound_acc[q] = SelectionBound<kMetric>(bound[q]);
    active[q] = true;
  }

  const size_t num_dims = dims.size();
  size_t c = 0;
  while (c < num_dims) {
    const size_t chunk_end = std::min(c + kDimChunk, num_dims);
    for (; c < chunk_end; ++c) {
      const double* base = view.Column(dims[c]) + first;
      const int dim = dims[c];
      for (size_t q = 0; q < nq; ++q) {
        if (!active[q]) continue;
        const double qv = queries[q].point[dim];
        double* a = acc[q];
        for (size_t j = 0; j < m; ++j) Accumulate<kMetric>(a[j], qv - base[j]);
      }
    }
    if (c < num_dims) {
      for (size_t q = 0; q < nq; ++q) {
        if (!active[q] || !(bound_acc[q] < kInf)) continue;
        double partial = acc[q][0];
        for (size_t j = 1; j < m; ++j) partial = std::min(partial, acc[q][j]);
        if (partial > bound_acc[q]) {
          active[q] = false;
          --num_active;
        }
      }
      if (num_active == 0) return;
    }
  }

  for (size_t q = 0; q < nq; ++q) {
    if (!active[q]) continue;
    const double* a = acc[q];
    double closest = a[0];
    for (size_t j = 1; j < m; ++j) closest = std::min(closest, a[j]);
    if (closest > bound_acc[q]) continue;
    for (size_t j = 0; j < m; ++j) {
      if (a[j] <= bound_acc[q]) {
        const data::PointId id = first + static_cast<data::PointId>(j);
        if (queries[q].exclude && *queries[q].exclude == id) continue;
        const double dist = Finalize<kMetric>(a[j]);
        if (dist <= bound[q]) queries[q].collector->Offer(id, dist);
      }
    }
  }
}

void MultiTopKDispatch(const DatasetView& view,
                       std::span<const MultiPointQuery> queries,
                       std::span<const int> dims, knn::MetricKind metric,
                       data::PointId first, size_t m) {
  switch (metric) {
    case knn::MetricKind::kL1:
      MultiTopKBlock<knn::MetricKind::kL1>(view, queries, dims, first, m);
      return;
    case knn::MetricKind::kL2:
      MultiTopKBlock<knn::MetricKind::kL2>(view, queries, dims, first, m);
      return;
    case knn::MetricKind::kLInf:
      MultiTopKBlock<knn::MetricKind::kLInf>(view, queries, dims, first, m);
      return;
  }
}

template <bool kMapped>
void TopKDispatch(const DatasetView& view, const double* query,
                  std::span<const int> dims, knn::MetricKind metric,
                  const data::PointId* ids, data::PointId first, size_t m,
                  TopKCollector* collector) {
  switch (metric) {
    case knn::MetricKind::kL1:
      TopKBlock<knn::MetricKind::kL1, kMapped>(view, query, dims, ids, first,
                                               m, collector);
      return;
    case knn::MetricKind::kL2:
      TopKBlock<knn::MetricKind::kL2, kMapped>(view, query, dims, ids, first,
                                               m, collector);
      return;
    case knn::MetricKind::kLInf:
      TopKBlock<knn::MetricKind::kLInf, kMapped>(view, query, dims, ids,
                                                 first, m, collector);
      return;
  }
}

void Dispatch(const DatasetView& view, const double* query,
              std::span<const int> dims, knn::MetricKind metric,
              data::PointId first, size_t m, double bound, double* out) {
  switch (metric) {
    case knn::MetricKind::kL1:
      DistanceBlock<knn::MetricKind::kL1>(view, query, dims, first, m, bound,
                                          out);
      return;
    case knn::MetricKind::kL2:
      DistanceBlock<knn::MetricKind::kL2>(view, query, dims, first, m, bound,
                                          out);
      return;
    case knn::MetricKind::kLInf:
      DistanceBlock<knn::MetricKind::kLInf>(view, query, dims, first, m,
                                            bound, out);
      return;
  }
}

}  // namespace

void BatchedSubspaceDistanceRange(const DatasetView& view,
                                  std::span<const double> query,
                                  std::span<const int> dims,
                                  knn::MetricKind metric, data::PointId first,
                                  size_t count, double bound,
                                  std::span<double> out) {
  for (size_t start = 0; start < count; start += kDistanceBlock) {
    const size_t m = std::min(kDistanceBlock, count - start);
    Dispatch(view, query.data(), dims, metric,
             first + static_cast<data::PointId>(start), m, bound,
             out.data() + start);
  }
}

void BatchedSubspaceDistanceRange(const DatasetView& view,
                                  std::span<const double> query,
                                  const Subspace& subspace,
                                  knn::MetricKind metric, data::PointId first,
                                  size_t count, double bound,
                                  std::span<double> out) {
  const std::vector<int> dims = subspace.Dims();
  BatchedSubspaceDistanceRange(view, query, dims, metric, first, count, bound,
                               out);
}

std::vector<knn::Neighbor> TopKCollector::TakeSorted() {
  std::vector<knn::Neighbor> out(heap_.size());
  for (size_t i = heap_.size(); i-- > 0;) {
    out[i] = heap_.top();
    heap_.pop();
  }
  return out;
}

uint64_t ScanAllForTopK(const DatasetView& view, std::span<const double> query,
                        const Subspace& subspace, knn::MetricKind metric,
                        std::optional<data::PointId> exclude,
                        TopKCollector* collector) {
  assert(view.row_ids().empty());
  const std::vector<int> dims = subspace.Dims();
  uint64_t examined = 0;

  // The bound tightens between blocks only; within a block every offer
  // still replays the scalar scan's admission sequence exactly.
  auto scan_segment = [&](size_t lo, size_t hi) {
    for (size_t start = lo; start < hi; start += kDistanceBlock) {
      const size_t m = std::min(kDistanceBlock, hi - start);
      TopKDispatch<false>(view, query.data(), dims, metric, nullptr,
                          static_cast<data::PointId>(start), m, collector);
      examined += m;
    }
  };

  const size_t n = view.num_points();
  if (exclude && *exclude < n) {
    scan_segment(0, *exclude);
    scan_segment(*exclude + 1, n);
  } else {
    scan_segment(0, n);
  }
  return examined;
}

uint64_t ScanRangeForTopK(const DatasetView& view,
                          std::span<const double> query,
                          std::span<const int> dims, knn::MetricKind metric,
                          size_t first, size_t count,
                          std::optional<data::PointId> exclude,
                          TopKCollector* collector) {
  const std::span<const data::PointId> rows = view.row_ids();
  assert(first + count <= rows.size());
  auto scan = [&](size_t lo, size_t hi) {
    for (size_t start = lo; start < hi; start += kDistanceBlock) {
      const size_t m = std::min(kDistanceBlock, hi - start);
      TopKDispatch<true>(view, query.data(), dims, metric,
                         rows.data() + start,
                         static_cast<data::PointId>(start), m, collector);
    }
  };
  // Like ScanAllForTopK, scan around the excluded row's position, so it is
  // neither offered nor counted.
  size_t cut = count;
  if (exclude) {
    for (size_t j = 0; j < count; ++j) {
      if (rows[first + j] == *exclude) {
        cut = j;
        break;
      }
    }
  }
  scan(first, first + cut);
  if (cut == count) return count;
  scan(first + cut + 1, first + count);
  return count - 1;
}

uint64_t ScanAllForTopKMulti(const DatasetView& view,
                             std::span<const MultiPointQuery> queries,
                             const Subspace& subspace, knn::MetricKind metric) {
  assert(view.row_ids().empty());
  const std::vector<int> dims = subspace.Dims();
  const size_t n = view.num_points();
  uint64_t examined = 0;
  for (size_t q0 = 0; q0 < queries.size(); q0 += kQueryBlock) {
    const size_t nq = std::min(kQueryBlock, queries.size() - q0);
    const std::span<const MultiPointQuery> tile = queries.subspan(q0, nq);
    for (size_t start = 0; start < n; start += kDistanceBlock) {
      const size_t m = std::min(kDistanceBlock, n - start);
      MultiTopKDispatch(view, tile, dims, metric,
                        static_cast<data::PointId>(start), m);
    }
    // Per point, the sequential scan examines every row except its own
    // exclusion (pruned candidates included), so the fused count is the
    // same sum it would report.
    for (const MultiPointQuery& mq : tile) {
      examined += n - ((mq.exclude && *mq.exclude < n) ? 1 : 0);
    }
  }
  return examined;
}

}  // namespace hos::kernels
