#include "src/knn/linear_scan.h"

#include <algorithm>

#include "src/kernels/batched_distance.h"
#include "src/knn/delta_scan.h"

namespace hos::knn {

LinearScanKnn::LinearScanKnn(const data::Dataset& dataset, MetricKind metric)
    : dataset_(dataset),
      metric_(metric),
      view_(kernels::DatasetView::Build(dataset)) {}

std::vector<Neighbor> LinearScanKnn::Search(const KnnQuery& query) const {
  const size_t k = static_cast<size_t>(std::max(query.k, 0));
  if (k == 0) return {};

  // With tombstones present the collector filters dead rows at admission;
  // without, the null filter keeps the hot path branch-free.
  kernels::TopKCollector collector(
      k, dataset_.num_tombstones() > 0 ? &dataset_ : nullptr);
  const data::PointId delta_begin = DeltaBegin(view_, dataset_);
  const auto end = static_cast<data::PointId>(dataset_.size());
  ++kernel_scans_;
  if (delta_begin < end) ++delta_merges_;
  distance_count_ +=
      kernels::ScanAllForTopK(view_, query.point, query.subspace, metric_,
                              query.exclude, &collector);
  distance_count_ +=
      DeltaScanTopK(dataset_, metric_, query.point, query.subspace,
                    delta_begin, end, query.exclude, &collector);
  return collector.TakeSorted();
}

std::vector<std::vector<Neighbor>> LinearScanKnn::SearchBatch(
    std::span<const BatchPointQuery> points, const Subspace& subspace,
    int k) const {
  const size_t kk = static_cast<size_t>(std::max(k, 0));
  if (kk == 0 || points.empty()) {
    return std::vector<std::vector<Neighbor>>(points.size());
  }
  const data::PointId delta_begin = DeltaBegin(view_, dataset_);
  const auto end = static_cast<data::PointId>(dataset_.size());

  const data::Dataset* live_filter =
      dataset_.num_tombstones() > 0 ? &dataset_ : nullptr;
  std::vector<kernels::TopKCollector> collectors;
  collectors.reserve(points.size());
  std::vector<kernels::MultiPointQuery> queries;
  queries.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    collectors.emplace_back(kk, live_filter);
  }
  for (size_t i = 0; i < points.size(); ++i) {
    queries.push_back(
        {points[i].point.data(), points[i].exclude, &collectors[i]});
  }

  kernel_scans_ += points.size();
  if (delta_begin < end) delta_merges_ += points.size();
  distance_count_ +=
      kernels::ScanAllForTopKMulti(view_, queries, subspace, metric_);

  std::vector<std::vector<Neighbor>> results;
  results.reserve(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    distance_count_ +=
        DeltaScanTopK(dataset_, metric_, points[i].point, subspace,
                      delta_begin, end, points[i].exclude, &collectors[i]);
    results.push_back(collectors[i].TakeSorted());
  }
  return results;
}

std::vector<Neighbor> LinearScanKnn::RangeSearch(std::span<const double> point,
                                                 const Subspace& subspace,
                                                 double radius) const {
  std::vector<Neighbor> out;
  const bool filter_dead = dataset_.num_tombstones() > 0;
  const data::PointId delta_begin = DeltaBegin(view_, dataset_);
  const auto end = static_cast<data::PointId>(dataset_.size());
  ++kernel_scans_;
  if (delta_begin < end) ++delta_merges_;
  const std::vector<int> dims = subspace.Dims();
  const size_t n = view_.num_points();
  double dist[kernels::kDistanceBlock];
  for (size_t start = 0; start < n; start += kernels::kDistanceBlock) {
    const size_t m = std::min(kernels::kDistanceBlock, n - start);
    kernels::BatchedSubspaceDistanceRange(
        view_, point, dims, metric_, static_cast<data::PointId>(start), m,
        radius, {dist, m});
    distance_count_ += m;
    for (size_t j = 0; j < m; ++j) {
      if (dist[j] <= radius) {
        const auto id = static_cast<data::PointId>(start + j);
        if (filter_dead && !dataset_.IsLive(id)) continue;
        out.push_back({id, dist[j]});
      }
    }
  }
  distance_count_ += DeltaScanRange(dataset_, metric_, point, subspace,
                                    delta_begin, end, radius, &out);
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  });
  return out;
}

KnnBackendStats LinearScanKnn::backend_stats() const {
  KnnBackendStats stats;
  stats.backend = "linear_scan";
  stats.distance_computations = distance_count_;
  stats.kernel_scans = kernel_scans_;
  stats.delta_merges = delta_merges_;
  return stats;
}

}  // namespace hos::knn
