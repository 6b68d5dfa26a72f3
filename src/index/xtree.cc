#include "src/index/xtree.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace hos::index {
namespace {

/// A row's key along the dimension being tiled.
using Keyed = std::pair<double, data::PointId>;

/// Reorders `keyed` so each run of `slab` positions (the last one shorter)
/// holds exactly the keys a full sort would put there: selection at the
/// middle slab boundary, then at the boundaries inside each half. O(n log
/// s) for s slabs, where a sort costs O(n log n). Keys tied across a
/// boundary may land in either slab, as under std::sort.
void SelectSlabs(std::span<Keyed> keyed, size_t slab) {
  const size_t num_slabs = (keyed.size() + slab - 1) / slab;
  if (num_slabs <= 1) return;
  const size_t mid = num_slabs / 2 * slab;
  std::nth_element(keyed.begin(), keyed.begin() + static_cast<ptrdiff_t>(mid),
                   keyed.end(), [](const Keyed& a, const Keyed& b) {
                     return a.first < b.first;
                   });
  SelectSlabs(keyed.first(mid), slab);
  SelectSlabs(keyed.subspan(mid), slab);
}

/// Sort-Tile-Recursive over the rows at order[begin, end) (non-empty):
/// cuts them into slabs along dimension `dim` and tiles each slab along the
/// next dimension, until a tile holds at most kLeafCapacity rows. Appends
/// each tile's end position to `first`, in slab order. `keyed` is scratch
/// as long as `order`; a call uses only its own positions of it.
void StrTile(const data::Dataset& dataset, int dim, size_t begin, size_t end,
             std::vector<data::PointId>* order, std::vector<Keyed>* keyed,
             std::vector<size_t>* first) {
  const size_t size = end - begin;
  if (size <= XTree::kLeafCapacity) {
    first->push_back(end);
    return;
  }
  const size_t num_chunks =
      (size + XTree::kLeafCapacity - 1) / XTree::kLeafCapacity;
  const int remaining = dataset.num_dims() - dim;
  size_t slabs;
  if (remaining <= 1) {
    slabs = num_chunks;
  } else {
    slabs = static_cast<size_t>(
        std::ceil(std::pow(static_cast<double>(num_chunks),
                           1.0 / static_cast<double>(remaining))));
    slabs = std::max<size_t>(2, slabs);
  }
  const size_t slab_size = (size + slabs - 1) / slabs;

  const std::span<Keyed> keys(keyed->data() + begin, size);
  for (size_t i = 0; i < size; ++i) {
    const data::PointId id = (*order)[begin + i];
    keys[i] = {dataset.At(id, dim), id};
  }
  SelectSlabs(keys, slab_size);
  for (size_t i = 0; i < size; ++i) (*order)[begin + i] = keys[i].second;

  for (size_t start = begin; start < end; start += slab_size) {
    const size_t stop = std::min(start + slab_size, end);
    if (remaining <= 1) {
      // Final dimension: each slab is already a tile of <= kLeafCapacity.
      first->push_back(stop);
    } else {
      StrTile(dataset, dim + 1, start, stop, order, keyed, first);
    }
  }
}

}  // namespace

XTree::XTree(const data::Dataset& dataset, knn::MetricKind metric,
             kernels::DatasetView view, kernels::LeafTable leaves)
    : LeafTableKnn(dataset, metric, std::move(view), std::move(leaves),
                   "xtree") {}

Result<XTree> XTree::BulkLoad(const data::Dataset& dataset,
                              knn::MetricKind metric) {
  const size_t n = dataset.size();

  // The live rows are tiled into leaves; tombstoned rows fold out here, and
  // still get positions past the last leaf, so the snapshot covers [0, n).
  std::vector<data::PointId> order;
  order.reserve(n);
  for (data::PointId id = 0; id < n; ++id) {
    if (dataset.IsLive(id)) order.push_back(id);
  }
  const size_t live = order.size();
  kernels::LeafTable leaves;
  if (live > 0) {
    std::vector<Keyed> keyed(live);
    StrTile(dataset, 0, 0, live, &order, &keyed, &leaves.first);
  }
  for (data::PointId id = 0; id < n; ++id) {
    if (!dataset.IsLive(id)) order.push_back(id);
  }

  leaves.position.resize(n);
  for (size_t pos = 0; pos < n; ++pos) {
    leaves.position[order[pos]] = static_cast<data::PointId>(pos);
  }
  kernels::DatasetView view =
      kernels::DatasetView::BuildInOrder(dataset, std::move(order));
  kernels::FitLeafBoxes(view, &leaves);
  return XTree(dataset, metric, std::move(view), std::move(leaves));
}

XTreeStats XTree::ComputeStats() const {
  return {size(), leaves().num_leaves()};
}

Status XTree::CheckInvariants() const {
  const kernels::LeafTable& table = leaves();
  const kernels::DatasetView& snapshot = view();
  const size_t n = snapshot.num_points();
  const std::span<const data::PointId> ids = snapshot.row_ids();
  if (table.position.size() != n) {
    return Status::Internal("position map covers " +
                            std::to_string(table.position.size()) +
                            " rows, the snapshot " + std::to_string(n));
  }
  for (size_t pos = 0; pos < n; ++pos) {
    if (ids[pos] >= n || table.position[ids[pos]] != pos) {
      return Status::Internal("position is not the inverse of the row ids "
                              "at position " + std::to_string(pos));
    }
  }
  const size_t num_leaves = table.num_leaves();
  const auto dims = static_cast<size_t>(snapshot.num_dims());
  if (table.first.front() != 0 || table.first.back() > n ||
      table.lo.size() != num_leaves * dims ||
      table.hi.size() != num_leaves * dims) {
    return Status::Internal("leaf table does not fit the snapshot");
  }

  // Tombstones are never lifted, so a row dead now was live at the build
  // only if it was tombstoned since.
  const bool deleted_since_build =
      dataset().last_tombstone_version() > snapshot.snapshot_version();
  for (size_t l = 0; l < num_leaves; ++l) {
    const size_t lo_pos = table.first[l];
    const size_t hi_pos = table.first[l + 1];
    if (hi_pos <= lo_pos || hi_pos - lo_pos > kLeafCapacity) {
      return Status::Internal(
          "leaf " + std::to_string(l) + " holds " +
          std::to_string(hi_pos > lo_pos ? hi_pos - lo_pos : 0) + " rows");
    }
    for (size_t dim = 0; dim < dims; ++dim) {
      const double* column = snapshot.Column(static_cast<int>(dim));
      const auto [min, max] =
          std::minmax_element(column + lo_pos, column + hi_pos);
      if (table.lo[dim * num_leaves + l] != *min ||
          table.hi[dim * num_leaves + l] != *max) {
        return Status::Internal("leaf " + std::to_string(l) +
                                "'s box is not tight in dimension " +
                                std::to_string(dim));
      }
    }
    for (size_t pos = lo_pos; pos < hi_pos; ++pos) {
      if (!deleted_since_build && !dataset().IsLive(ids[pos])) {
        return Status::Internal("leaf " + std::to_string(l) + " holds row " +
                                std::to_string(ids[pos]) +
                                ", dead at build");
      }
    }
  }
  for (size_t pos = table.first.back(); pos < n; ++pos) {
    if (dataset().IsLive(ids[pos])) {
      return Status::Internal("live row " + std::to_string(ids[pos]) +
                              " is in no leaf");
    }
  }
  return Status::OK();
}

}  // namespace hos::index
