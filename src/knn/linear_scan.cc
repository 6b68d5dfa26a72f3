#include "src/knn/linear_scan.h"

#include <limits>
#include <numeric>

namespace hos::knn {
namespace {

/// One leaf over every view position, tombstoned rows included (the
/// collector filters them), with a box that bounds nothing, so the leaf
/// filter never skips it.
kernels::LeafTable OneLeaf(const data::Dataset& dataset) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  kernels::LeafTable leaves;
  leaves.first = {0, dataset.size()};
  leaves.lo.assign(static_cast<size_t>(dataset.num_dims()), -kInf);
  leaves.hi.assign(static_cast<size_t>(dataset.num_dims()), kInf);
  leaves.position.resize(dataset.size());
  std::iota(leaves.position.begin(), leaves.position.end(), data::PointId{0});
  return leaves;
}

}  // namespace

LinearScanKnn::LinearScanKnn(const data::Dataset& dataset, MetricKind metric)
    : LeafTableKnn(dataset, metric, kernels::DatasetView::Build(dataset),
                   OneLeaf(dataset), "linear_scan") {}

}  // namespace hos::knn
