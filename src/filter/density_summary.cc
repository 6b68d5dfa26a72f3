#include "src/filter/density_summary.h"

#include <algorithm>
#include <cmath>

namespace hos::filter {
namespace {

/// Quantizes one coordinate against a frozen grid. Returns false when the
/// value lies outside [lo, lo + cells * width] — such a coordinate has no
/// cell whose interval contains it, so counting it would let the filter
/// derive an unsound per-candidate bound.
bool CellOfInGrid(double value, double lo, double width, int cells,
                  int* cell) {
  if (value < lo || value > lo + width * cells) return false;
  // Values exactly on the upper grid edge belong to the last cell (the
  // same clamp rule Build uses); interior values floor.
  *cell = std::clamp(static_cast<int>(std::floor((value - lo) / width)), 0,
                     cells - 1);
  return true;
}

}  // namespace

DensitySummary DensitySummary::Build(const data::Dataset& dataset,
                                     int bits_per_dim) {
  const int d = dataset.num_dims();
  DensitySummary summary;
  summary.num_dims = d;
  summary.cells_per_dim = 1 << std::clamp(bits_per_dim, 1, 8);
  summary.rows = dataset.size();
  summary.live_rows = dataset.live_size();
  summary.dim_lo.resize(d);
  summary.dim_width.resize(d);
  const std::vector<data::ColumnStats> stats =
      data::ComputeColumnStats(dataset);
  for (int dim = 0; dim < d; ++dim) {
    summary.dim_lo[dim] = stats[dim].min;
    const double extent = stats[dim].max - stats[dim].min;
    summary.dim_width[dim] =
        extent > 0.0 ? extent / summary.cells_per_dim : 1.0;
  }
  summary.cells.assign(summary.rows * static_cast<size_t>(d), 0);
  summary.counted.assign(summary.rows, 0);
  summary.cell_counts.assign(
      static_cast<size_t>(d) * summary.cells_per_dim, 0);
  for (data::PointId id = 0; id < summary.rows; ++id) {
    // Dead rows keep zeroed cells and no counts: their chunk storage may be
    // reclaimed, so they must not be read.
    if (!dataset.IsLive(id)) continue;
    const std::span<const double> row = dataset.Row(id);
    for (int dim = 0; dim < d; ++dim) {
      const double offset =
          (row[dim] - summary.dim_lo[dim]) / summary.dim_width[dim];
      const int cell = std::clamp(static_cast<int>(std::floor(offset)), 0,
                                  summary.cells_per_dim - 1);
      summary.cells[static_cast<size_t>(id) * d + dim] =
          static_cast<uint8_t>(cell);
      ++summary.cell_counts[static_cast<size_t>(dim) *
                                summary.cells_per_dim +
                            cell];
    }
    summary.counted[id] = 1;
    ++summary.counted_live;
  }
  summary.applied_version = dataset.version();
  return summary;
}

void DensitySummary::ApplyAppend(const data::Dataset& dataset) {
  const int d = num_dims;
  if (rows > dataset.size()) {
    // The dataset shrank underneath us — impossible through the miner's
    // mutators (ids are stable; eviction only tombstones). Refuse to guess.
    diverged = true;
    return;
  }
  cells.resize(dataset.size() * static_cast<size_t>(d), 0);
  counted.resize(dataset.size(), 0);
  for (data::PointId id = rows; id < dataset.size(); ++id) {
    // A row appended and already tombstoned (window slid past it between
    // applies) must not be read — its storage may be reclaimed.
    if (!dataset.IsLive(id)) continue;
    const std::span<const double> row = dataset.Row(id);
    bool in_grid = true;
    for (int dim = 0; dim < d && in_grid; ++dim) {
      int cell = 0;
      in_grid = CellOfInGrid(row[dim], dim_lo[dim], dim_width[dim],
                             cells_per_dim, &cell);
      cells[static_cast<size_t>(id) * d + dim] = static_cast<uint8_t>(cell);
    }
    if (!in_grid) {
      // Out-of-grid rows stay uncounted: the filter folds them by exact
      // distance, and the coarse tier drops its lower bound to 0 while any
      // exist (density_filter.cc).
      std::fill_n(cells.begin() + static_cast<size_t>(id) * d, d, 0);
      continue;
    }
    for (int dim = 0; dim < d; ++dim) {
      ++cell_counts[static_cast<size_t>(dim) * cells_per_dim +
                    cells[static_cast<size_t>(id) * d + dim]];
    }
    counted[id] = 1;
    ++counted_live;
  }
  rows = dataset.size();
  applied_version = dataset.version();
  CheckTallyIntegrity();
}

void DensitySummary::ApplyDelete(const data::Dataset& dataset,
                                 std::span<const data::PointId> ids) {
  for (data::PointId id : ids) {
    if (id >= rows || !counted[id]) continue;
    for (int dim = 0; dim < num_dims; ++dim) {
      uint32_t& count =
          cell_counts[static_cast<size_t>(dim) * cells_per_dim +
                      CellOf(id, dim)];
      if (count == 0) {
        diverged = true;
        return;
      }
      --count;
    }
    counted[id] = 0;
    --counted_live;
  }
  if (rows == dataset.size()) applied_version = dataset.version();
  CheckTallyIntegrity();
}

void DensitySummary::ResyncTombstones(const data::Dataset& dataset) {
  for (data::PointId id = 0; id < std::min(rows, dataset.size()); ++id) {
    if (!counted[id] || dataset.IsLive(id)) continue;
    for (int dim = 0; dim < num_dims; ++dim) {
      uint32_t& count =
          cell_counts[static_cast<size_t>(dim) * cells_per_dim +
                      CellOf(id, dim)];
      if (count == 0) {
        diverged = true;
        return;
      }
      --count;
    }
    counted[id] = 0;
    --counted_live;
  }
  if (rows == dataset.size()) applied_version = dataset.version();
  CheckTallyIntegrity();
}

bool DensitySummary::CheckTallyIntegrity() {
  if (diverged) return false;
  for (int dim = 0; dim < num_dims; ++dim) {
    uint64_t sum = 0;
    for (int c = 0; c < cells_per_dim; ++c) sum += CountIn(dim, c);
    if (sum != counted_live) {
      diverged = true;
      return false;
    }
  }
  return true;
}

}  // namespace hos::filter
