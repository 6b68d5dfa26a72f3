#include "src/knn/delta_scan.h"

namespace hos::knn {

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

}  // namespace hos::knn
