#include "src/kernels/dataset_view.h"

#include <cassert>

namespace hos::kernels {

DatasetView DatasetView::Build(const data::Dataset& dataset) {
  DatasetView view;
  view.Fill(dataset);
  return view;
}

DatasetView DatasetView::BuildInOrder(const data::Dataset& dataset,
                                      std::vector<data::PointId> order) {
  assert(order.size() == dataset.size());
  DatasetView view;
  view.row_ids_ = std::move(order);
  view.Fill(dataset);
  return view;
}

void DatasetView::Fill(const data::Dataset& dataset) {
  num_points_ = dataset.size();
  num_dims_ = dataset.num_dims();
  snapshot_version_ = dataset.version();
  // One position per row id, live or dead: the view covers rows
  // [0, num_points()) in either order. Dead rows are left zeroed — their
  // storage chunk may already be reclaimed — and are filtered out of query
  // results at offer time, never admitted into an answer.
  columns_.assign(num_points_ * static_cast<size_t>(num_dims_), 0.0);
  for (size_t pos = 0; pos < num_points_; ++pos) {
    const data::PointId id = RowAt(pos);
    if (!dataset.IsLive(id)) continue;
    const std::span<const double> row = dataset.Row(id);
    for (int dim = 0; dim < num_dims_; ++dim) {
      columns_[static_cast<size_t>(dim) * num_points_ + pos] = row[dim];
    }
  }
}

}  // namespace hos::kernels
