// DensitySummary: the quantized per-dimension view of a dataset that the
// density-bound OD pre-filter (density_filter.h) computes its bounds from:
// per-dimension equi-width cell boundaries plus one cell index per (row,
// dimension) — the approximation data of a VA-file (Weber et al., VLDB'98)
// — extended with per-dimension *live-count histograms* so a filter can
// also reason about whole-population density in O(cells) instead of
// O(rows). DensitySummary::Build is its one producer; the miner quantizes
// at HosMinerConfig::filter_bits_per_dim on every rebuild.
//
// Incremental maintenance. The summary can track the dataset through the
// streaming lifecycle without a rebuild: ApplyAppend folds newly appended
// rows into the cells and histograms (rows outside the frozen grid are
// recorded as present-but-uncounted, so bounds derived from the tallies
// stay sound), ApplyDelete / ResyncTombstones retire tombstoned rows'
// counts so the histograms *tighten* as the window slides instead of only
// loosening until the next rebuild. `synced(dataset)` reports whether the
// tallies currently describe the dataset exactly; each mutation re-checks
// the per-dimension count invariant and flips `diverged` (killing synced()
// forever) rather than ever serving a corrupt tally.
//
// Coverage contract: the summary describes the first `rows` ids of the
// dataset. When synced(), `rows == dataset.size()` and `counted` says
// per-row whether the histograms include it (live and inside the grid).
// When not synced (a consumer mutated the dataset without applying the
// change here), rows appended after the last apply are absent and rows
// tombstoned after it still carry counts. The filter compensates for every
// case (see density_filter.h) — consumers other than the filter must check
// covers()/synced() themselves.

#ifndef HOS_FILTER_DENSITY_SUMMARY_H_
#define HOS_FILTER_DENSITY_SUMMARY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/data/dataset.h"

namespace hos::filter {

struct DensitySummary {
  int num_dims = 0;
  int cells_per_dim = 0;
  /// Ids the cells cover: [0, rows). Tombstoned rows in that range carry
  /// zeroed cells and histogram counts of the moment the summary was built,
  /// unless ApplyDelete/ResyncTombstones retired them since.
  size_t rows = 0;
  /// Live rows among [0, rows) at build time.
  size_t live_rows = 0;
  /// Per-dimension cell boundaries: cell c of dim j spans
  /// [dim_lo[j] + c * dim_width[j], dim_lo[j] + (c + 1) * dim_width[j]].
  std::vector<double> dim_lo;
  std::vector<double> dim_width;
  /// Row-major rows x num_dims matrix of cell indices (zeroed for rows dead
  /// at build time — their storage may already be reclaimed — and for
  /// appended rows that fell outside the frozen grid).
  std::vector<uint8_t> cells;
  /// Live-count histogram: cell_counts[dim * cells_per_dim + c] is the
  /// number of counted rows whose dim coordinate fell in cell c.
  std::vector<uint32_t> cell_counts;
  /// Per-row flag: the row contributes one count to every dimension's
  /// histogram and its `cells` entries are valid bounds for its
  /// coordinates. Cleared for rows dead at build, rows appended outside
  /// the grid, and rows retired by ApplyDelete/ResyncTombstones.
  std::vector<uint8_t> counted;
  /// Number of rows currently counted (the per-dimension histogram sum).
  size_t counted_live = 0;
  /// Dataset version the tallies last applied (Build / Apply* set it).
  uint64_t applied_version = 0;
  /// Set when a tally integrity check failed; synced() is then false
  /// forever and the filter falls back to rebuild-era semantics.
  bool diverged = false;

  /// Cell index of `id` in `dim`; id must be < rows.
  uint8_t CellOf(data::PointId id, int dim) const {
    return cells[static_cast<size_t>(id) * num_dims + dim];
  }

  /// Counted rows in cell `c` of `dim`.
  uint32_t CountIn(int dim, int c) const {
    return cell_counts[static_cast<size_t>(dim) * cells_per_dim + c];
  }

  /// True when row `id` (< rows) contributes to the histograms and its
  /// cells are valid interval bounds for its coordinates.
  bool IsCounted(data::PointId id) const { return counted[id] != 0; }

  /// True when the summary still describes every row of `dataset` (nothing
  /// appended since it was built; later tombstones are fine — the filter's
  /// bounds stay valid for those, only looser).
  bool covers(const data::Dataset& dataset) const {
    return rows == dataset.size();
  }

  /// True when the incremental tallies describe `dataset` exactly: every
  /// row has a cells entry, the histograms reflect the current live set
  /// (minus any uncounted out-of-grid appends), and no integrity check has
  /// failed. The filter's tightened streaming bounds require this; when it
  /// is false the filter falls back to the rebuild-era semantics.
  bool synced(const data::Dataset& dataset) const {
    return !diverged && rows == dataset.size() &&
           applied_version == dataset.version();
  }

  /// Folds rows [rows, dataset.size()) into the summary: live rows whose
  /// coordinates fall inside the frozen grid get cells and histogram
  /// counts; out-of-grid rows are recorded uncounted (the filter folds
  /// them by exact distance). Advances `rows`/`applied_version` and
  /// re-checks tally integrity.
  void ApplyAppend(const data::Dataset& dataset);

  /// Retires the given tombstoned rows' histogram counts (sparse update —
  /// O(|ids| * d)). Ids must already be dead in `dataset`.
  void ApplyDelete(const data::Dataset& dataset,
                   std::span<const data::PointId> ids);

  /// Retires counts of every counted row that is no longer live — the
  /// O(rows) catch-up for eviction paths that report only a count, not the
  /// ids. Advances `applied_version` when the summary spans the dataset.
  void ResyncTombstones(const data::Dataset& dataset);

  /// Verifies the per-dimension histogram sums equal counted_live. O(d *
  /// cells). Sets `diverged` and returns false on mismatch.
  bool CheckTallyIntegrity();

  /// Quantizes `dataset` with 2^bits_per_dim equi-width cells per dimension
  /// (bits clamped to 1..8) over each dimension's observed live [min, max];
  /// a value on the upper edge falls in the last cell.
  static DensitySummary Build(const data::Dataset& dataset, int bits_per_dim);
};

}  // namespace hos::filter

#endif  // HOS_FILTER_DENSITY_SUMMARY_H_
