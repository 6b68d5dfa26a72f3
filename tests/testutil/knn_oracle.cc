#include "tests/testutil/knn_oracle.h"

#include <algorithm>
#include <utility>

#include "src/kernels/batched_distance.h"
#include "src/kernels/dataset_view.h"

namespace hos::testutil {
namespace {

void SortByDistanceThenId(std::vector<knn::Neighbor>* neighbors) {
  std::sort(neighbors->begin(), neighbors->end(),
            [](const knn::Neighbor& a, const knn::Neighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
}

}  // namespace

std::vector<knn::Neighbor> OracleKnn(const data::Dataset& ds,
                                     std::span<const double> q,
                                     const Subspace& subspace,
                                     knn::MetricKind metric,
                                     std::optional<data::PointId> exclude,
                                     int k) {
  std::vector<knn::Neighbor> want;
  for (data::PointId id = 0; id < ds.size(); ++id) {
    if ((exclude && *exclude == id) || !ds.IsLive(id)) continue;
    want.push_back(
        {id, knn::SubspaceDistance(q, ds.Row(id), subspace, metric)});
  }
  SortByDistanceThenId(&want);
  want.resize(std::min(want.size(), static_cast<size_t>(std::max(k, 0))));
  return want;
}

std::vector<knn::Neighbor> OracleRange(const data::Dataset& ds,
                                       std::span<const double> q,
                                       const Subspace& subspace,
                                       knn::MetricKind metric,
                                       double radius) {
  std::vector<knn::Neighbor> want;
  for (data::PointId id = 0; id < ds.size(); ++id) {
    if (!ds.IsLive(id)) continue;
    const double dist = knn::SubspaceDistance(q, ds.Row(id), subspace, metric);
    if (dist <= radius) want.push_back({id, dist});
  }
  SortByDistanceThenId(&want);
  return want;
}

data::Dataset MakeDuplicateHeavy(size_t n, int d, Rng* rng) {
  data::Dataset ds(d);
  std::vector<double> row(d);
  const int zero_variance_dim = static_cast<int>(rng->UniformInt(0, d - 1));
  while (ds.size() < n) {
    for (int dim = 0; dim < d; ++dim) {
      row[dim] = dim == zero_variance_dim ? 0.25 : rng->Uniform();
    }
    const int copies = 1 + static_cast<int>(rng->UniformInt(0, 3));
    for (int c = 0; c < copies && ds.size() < n; ++c) ds.Append(row);
  }
  return ds;
}

knn::LeafTableKnn RandomLeafEngine(const data::Dataset& ds,
                                   knn::MetricKind metric,
                                   size_t max_leaf_rows, Rng* rng) {
  std::vector<data::PointId> live = ds.LiveIds();
  if (rng->Bernoulli(0.5)) {
    // Slabs along one dimension: boxes the filter can tell apart.
    const int dim = static_cast<int>(rng->UniformInt(0, ds.num_dims() - 1));
    std::stable_sort(live.begin(), live.end(),
                     [&](data::PointId a, data::PointId b) {
                       return ds.At(a, dim) < ds.At(b, dim);
                     });
  } else {
    rng->Shuffle(&live);
  }
  std::vector<std::vector<data::PointId>> leaf_rows;
  for (size_t start = 0; start < live.size();) {
    const auto size = static_cast<size_t>(
        rng->UniformInt(1, static_cast<int64_t>(max_leaf_rows)));
    const size_t stop = std::min(start + size, live.size());
    leaf_rows.emplace_back(live.begin() + static_cast<ptrdiff_t>(start),
                           live.begin() + static_cast<ptrdiff_t>(stop));
    start = stop;
  }
  if (rng->Bernoulli(0.5)) rng->Shuffle(&leaf_rows);

  kernels::LeafTable leaves;
  std::vector<data::PointId> order;
  order.reserve(ds.size());
  for (const std::vector<data::PointId>& rows : leaf_rows) {
    order.insert(order.end(), rows.begin(), rows.end());
    leaves.first.push_back(order.size());
  }
  for (data::PointId id = 0; id < ds.size(); ++id) {
    if (!ds.IsLive(id)) order.push_back(id);
  }
  leaves.position.resize(order.size());
  for (size_t pos = 0; pos < order.size(); ++pos) {
    leaves.position[order[pos]] = static_cast<data::PointId>(pos);
  }
  kernels::DatasetView view =
      kernels::DatasetView::BuildInOrder(ds, std::move(order));
  kernels::FitLeafBoxes(view, &leaves);
  return knn::LeafTableKnn(ds, metric, std::move(view), std::move(leaves),
                           "random_leaves");
}

}  // namespace hos::testutil
