#include "src/knn/leaf_table_knn.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hos::knn {
namespace {

/// Offers every live delta row in [begin, end) except `exclude` into the
/// collector (scalar metric path); tombstoned rows are skipped before their
/// distance is computed. Returns the distance computations performed.
uint64_t DeltaScanTopK(const data::Dataset& dataset, MetricKind metric,
                       std::span<const double> point, const Subspace& subspace,
                       data::PointId begin, data::PointId end,
                       std::optional<data::PointId> exclude,
                       kernels::TopKCollector* collector) {
  uint64_t computed = 0;
  for (data::PointId id = begin; id < end; ++id) {
    if (exclude && *exclude == id) continue;
    if (!dataset.IsLive(id)) continue;
    double dist = SubspaceDistance(point, dataset.Row(id), subspace, metric);
    ++computed;
    collector->Offer(id, dist);
  }
  return computed;
}

/// Appends every live delta row in [begin, end) within `radius` (inclusive)
/// to `out`, unsorted. Returns the distance computations performed.
uint64_t DeltaScanRange(const data::Dataset& dataset, MetricKind metric,
                        std::span<const double> point,
                        const Subspace& subspace, data::PointId begin,
                        data::PointId end, double radius,
                        std::vector<Neighbor>* out) {
  uint64_t computed = 0;
  for (data::PointId id = begin; id < end; ++id) {
    if (!dataset.IsLive(id)) continue;
    double dist = SubspaceDistance(point, dataset.Row(id), subspace, metric);
    ++computed;
    if (dist <= radius) out->push_back({id, dist});
  }
  return computed;
}

}  // namespace

LeafTableKnn::LeafTableKnn(const data::Dataset& dataset, MetricKind metric,
                           kernels::DatasetView view,
                           kernels::LeafTable leaves, const char* backend)
    : dataset_(&dataset),
      metric_(metric),
      view_(std::move(view)),
      leaves_(std::move(leaves)),
      backend_(backend) {}

data::PointId LeafTableKnn::DeltaBegin() const {
  assert(dataset_->last_overwrite_version() <= view_.snapshot_version());
  return static_cast<data::PointId>(view_.num_points());
}

std::vector<Neighbor> LeafTableKnn::Search(const KnnQuery& query) const {
  if (query.k <= 0) return {};
  // Rows tombstoned after the build are still in their leaves; with
  // tombstones present the collector rejects them at admission, so they
  // neither reach the answer nor tighten its bound. Without, the null
  // filter keeps the hot path branch-free.
  kernels::TopKCollector collector(
      static_cast<size_t>(query.k),
      dataset_->num_tombstones() > 0 ? dataset_ : nullptr);
  const data::PointId delta_begin = DeltaBegin();
  const auto end = static_cast<data::PointId>(dataset_->size());
  ++kernel_scans_;
  if (delta_begin < end) ++delta_merges_;
  const std::vector<int> dims = query.subspace.Dims();
  const kernels::LeafScanCounts counts = kernels::LeafFilteredTopK(
      view_, leaves_, query.point, dims, metric_, query.exclude, &collector);
  node_access_count_ += counts.leaves;
  distance_count_ +=
      counts.examined + DeltaScanTopK(*dataset_, metric_, query.point,
                                      query.subspace, delta_begin, end,
                                      query.exclude, &collector);
  return collector.TakeSorted();
}

std::vector<Neighbor> LeafTableKnn::RangeSearch(std::span<const double> point,
                                                const Subspace& subspace,
                                                double radius) const {
  std::vector<Neighbor> out;
  const data::PointId delta_begin = DeltaBegin();
  const auto end = static_cast<data::PointId>(dataset_->size());
  ++kernel_scans_;
  if (delta_begin < end) ++delta_merges_;
  const std::vector<int> dims = subspace.Dims();
  const kernels::LeafScanCounts counts = kernels::LeafFilteredRange(
      view_, leaves_, point, dims, metric_, radius,
      dataset_->num_tombstones() > 0 ? dataset_ : nullptr, &out);
  node_access_count_ += counts.leaves;
  distance_count_ += counts.examined +
                     DeltaScanRange(*dataset_, metric_, point, subspace,
                                    delta_begin, end, radius, &out);
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  });
  return out;
}

KnnBackendStats LeafTableKnn::backend_stats() const {
  KnnBackendStats stats;
  stats.backend = backend_;
  stats.distance_computations = distance_count_;
  stats.node_accesses = node_access_count_;
  stats.kernel_scans = kernel_scans_;
  stats.delta_merges = delta_merges_;
  return stats;
}

}  // namespace hos::knn
