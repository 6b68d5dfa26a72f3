// Dataset: an in-memory, row-major collection of d-dimensional points.
// This is the single data representation shared by the index, the kNN
// engines, the search algorithms and the baselines.
//
// Streaming ingest model: a dataset carries a monotonically increasing
// version() counter (every mutation — appended row, in-place Set, or
// tombstoned row — bumps it) and an immutable base/delta split. SealBase()
// freezes the current rows as the *base*: the prefix the SoA snapshots and
// index structures are built over. Rows appended afterwards form the
// *delta* [base_size(), size()), which the kNN backends serve by an exact
// scalar scan merged into their kernel/index results until the next rebuild
// re-seals the base. In-place mutation of rows an engine has snapshotted is
// a contract violation (it would silently invalidate every structure built
// over them): the kNN engines assert last_overwrite_version() against their
// snapshot's version, so debug builds catch it at the next query.
//
// Sliding-window model: rows never move and PointIds are stable forever;
// deletion is a per-row *tombstone* (DeleteRows / EvictBefore /
// EvictOldest). A dead row keeps its id — readers skip it via IsLive() —
// so structures built before the delete stay positionally valid and merge
// a tombstone filter into their results exactly like the append delta
// scan. Rebuild()s are built over live rows only, folding tombstones into
// the structures physically; once every dead row of a sealed storage chunk
// is below the re-sealed base, ReclaimDeadChunks() frees the chunk.
//
// Storage is *chunked*: fixed-size row blocks that are never reallocated,
// so Append never invalidates a previously returned Row() span even while
// a background rebuild's prepare phase is reading the dataset.

#ifndef HOS_DATA_DATASET_H_
#define HOS_DATA_DATASET_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/status.h"

namespace hos::data {

/// Identifier of a point within a Dataset (its row index).
using PointId = uint32_t;

/// Row-major matrix of doubles with named columns, stored in fixed-size
/// chunks.
///
/// Rows are points, columns are dimensions/attributes. Storage is a list
/// of kChunkRows-row blocks; rows never straddle chunks and a chunk, once
/// allocated, is never moved or resized — `Row(i)` spans stay valid across
/// any number of later appends (the guarantee the concurrent serving path
/// relies on: a rebuild's prepare phase may hold row pointers while the
/// ingest path appends).
///
/// Thread safety: none. Mutations (Append/AppendRows/Set/DeleteRows/
/// Evict*) must be externally serialized against readers —
/// service::QueryService does this with its ingest lock.
class Dataset {
 public:
  /// Rows per storage chunk. A power of two so Row() indexing is a
  /// shift+mask; 256 rows keeps per-chunk allocation in the tens of KB for
  /// typical dimensionalities.
  static constexpr size_t kChunkRows = 256;

  /// Empty dataset with `num_dims` columns. Column names default to
  /// "dim1".."dimD" (1-based, matching the paper's notation).
  explicit Dataset(int num_dims);

  /// Builds from pre-existing rows; every row must have `num_dims` entries.
  static Result<Dataset> FromRows(const std::vector<std::vector<double>>& rows,
                                  int num_dims);

  /// Deep copy (chunked storage is owned, so copying clones every chunk —
  /// including reclaimed holes, which stay holes). Moves are O(1) and
  /// leave the source empty.
  Dataset(const Dataset& other);
  Dataset& operator=(const Dataset& other);
  Dataset(Dataset&&) noexcept = default;
  Dataset& operator=(Dataset&&) noexcept = default;

  int num_dims() const { return num_dims_; }
  /// Rows ever appended, live or dead: the exclusive upper bound of valid
  /// PointIds. Tombstoned rows still count — ids are stable.
  size_t size() const { return num_points_; }
  bool empty() const { return num_points_ == 0; }

  /// Appends a point; returns its id. `row.size()` must equal num_dims().
  PointId Append(std::span<const double> row);

  /// Appends a batch of rows, validating each row's width. Returns the
  /// dataset version after the append. On error nothing is appended.
  Result<uint64_t> AppendRows(const std::vector<std::vector<double>>& rows);

  /// Monotonic mutation counter: +1 per appended row, +1 per Set call,
  /// +1 per tombstoned row. Two equal versions of the same dataset object
  /// denote identical contents, and version never decreases — the serving
  /// layer keys its cross-query OD cache by it.
  uint64_t version() const { return version_; }

  /// The version recorded by the most recent in-place Set; 0 when no cell
  /// was ever overwritten. A snapshot taken at version v still matches the
  /// first n rows iff last_overwrite_version() <= v (appends and
  /// tombstones never change existing row *values*).
  uint64_t last_overwrite_version() const { return last_overwrite_version_; }

  // -- Tombstones -----------------------------------------------------------

  /// True iff the row has not been deleted/evicted. Out-of-range ids are
  /// the caller's bug (same contract as Row()).
  bool IsLive(PointId id) const {
    if (tombstones_.empty()) return true;
    const size_t word = static_cast<size_t>(id) >> 6;
    return word >= tombstones_.size() ||
           ((tombstones_[word] >> (id & 63)) & 1u) == 0;
  }

  /// Rows not tombstoned — what a fresh build on the survivors would hold.
  size_t live_size() const { return num_points_ - num_tombstones_; }

  /// Total tombstoned rows, ever (tombstones are never un-set).
  size_t num_tombstones() const { return num_tombstones_; }

  /// Ids of the live rows, ascending; the identity when nothing is
  /// tombstoned. Position i holds the row that a fresh build on the
  /// survivors would number i, so a sampler drawing positions here draws
  /// the rows that build would.
  std::vector<PointId> LiveIds() const;

  /// Live rows with id < end. O(end/64) popcount; a rebuild uses it to
  /// count the tombstones it folds out.
  size_t CountLiveBefore(size_t end) const;

  /// Tombstones the given rows, all-or-nothing: every id must be in range,
  /// live, and not repeated in the batch, else nothing is deleted
  /// (OutOfRange / NotFound / InvalidArgument). Bumps version() once per
  /// deleted row; returns the version after the batch.
  Result<uint64_t> DeleteRows(std::span<const PointId> ids);

  /// Tombstones every live row whose append version is < `version` — the
  /// TTL form of eviction (callers map a wall-clock horizon to the version
  /// watermark they recorded at that time). Returns the number evicted.
  size_t EvictBefore(uint64_t version);

  /// Tombstones the `n` oldest (lowest-id) live rows — the row-count
  /// sliding-window form. Returns the number evicted (< n when fewer rows
  /// are live).
  size_t EvictOldest(size_t n);

  /// The version() value at which row `id` was appended. Valid for dead
  /// rows too.
  uint64_t RowVersion(PointId id) const {
    return version_chunks_[static_cast<size_t>(id) >> kChunkShift]
                          [id & kChunkMask];
  }

  /// The version recorded by the most recent tombstone; 0 when no row was
  /// ever deleted.
  uint64_t last_tombstone_version() const { return last_tombstone_version_; }

  // -- Base/delta seal ------------------------------------------------------

  /// Seals the current rows as the immutable base and returns the current
  /// version. Called when the system (re)builds its snapshots and indexes;
  /// rows appended afterwards are the delta, and tombstones set afterwards
  /// are the unsealed tombstones the query path must filter.
  uint64_t SealBase() {
    base_size_ = num_points_;
    sealed_tombstones_ = num_tombstones_;
    return version_;
  }

  /// Seals the first `rows` rows (clamped to size()) as the base, with
  /// `folded_tombstones` the num_tombstones() value the rebuild's prepare
  /// phase observed — the form a rebuild commit uses when rows were
  /// appended or deleted between prepare and commit.
  void SealBaseAt(size_t rows, uint64_t folded_tombstones) {
    base_size_ = std::min(rows, num_points_);
    sealed_tombstones_ = std::min(folded_tombstones,
                                  static_cast<uint64_t>(num_tombstones_));
  }
  void SealBaseAt(size_t rows) { SealBaseAt(rows, num_tombstones_); }

  /// Rows in the sealed base (0 before the first SealBase call).
  size_t base_size() const { return base_size_; }

  /// Rows appended since the base was sealed.
  size_t delta_size() const { return num_points_ - base_size_; }

  /// Tombstones set since the base was sealed — dead rows the sealed
  /// structures still contain, filtered out at query time until the next
  /// rebuild folds them away.
  size_t unsealed_tombstones() const {
    return num_tombstones_ - sealed_tombstones_;
  }

  /// delta / size; 0 for an empty dataset.
  double delta_fraction() const {
    return num_points_ == 0
               ? 0.0
               : static_cast<double>(delta_size()) /
                     static_cast<double>(num_points_);
  }

  /// (delta rows + unsealed tombstones) / live rows — the per-query extra
  /// work the sealed structures cannot serve, and hence the rebuild-policy
  /// signal. 0 for an empty dataset.
  double churn_fraction() const {
    const size_t live = live_size();
    return live == 0 ? 0.0
                     : static_cast<double>(delta_size() +
                                           unsealed_tombstones()) /
                           static_cast<double>(live);
  }

  /// Frees storage chunks in which every row is both tombstoned and below
  /// the sealed base — rows no live structure can reference (rebuilds are
  /// built over live rows only). Returns the number of chunks released.
  /// Reading a reclaimed row is the caller's bug, like an out-of-range id.
  size_t ReclaimDeadChunks();

  /// Storage chunks currently allocated (observability + tests).
  size_t allocated_chunks() const;

  // -- Row access -----------------------------------------------------------

  /// Read-only view of a row. Stable across appends (never reallocated).
  std::span<const double> Row(PointId id) const {
    return {ChunkRow(id), static_cast<size_t>(num_dims_)};
  }

  /// Single cell access.
  double At(PointId id, int dim) const { return ChunkRow(id)[dim]; }

  /// In-place overwrite. Bumps version() and records the overwrite so
  /// snapshot holders can detect that their base no longer matches.
  void Set(PointId id, int dim, double value) {
    const_cast<double*>(ChunkRow(id))[dim] = value;
    last_overwrite_version_ = ++version_;
  }

  /// Copies a row out (for callers that need to mutate a query point).
  std::vector<double> RowCopy(PointId id) const;

  const std::vector<std::string>& column_names() const { return names_; }
  Status SetColumnNames(std::vector<std::string> names);

 private:
  static constexpr size_t kChunkShift = 8;  // log2(kChunkRows)
  static constexpr size_t kChunkMask = kChunkRows - 1;
  static_assert((size_t{1} << kChunkShift) == kChunkRows);

  const double* ChunkRow(PointId id) const {
    const double* chunk =
        chunks_[static_cast<size_t>(id) >> kChunkShift].get();
    assert(chunk != nullptr && "row storage was reclaimed");
    return chunk + (static_cast<size_t>(id) & kChunkMask) * num_dims_;
  }

  /// Marks one in-range live row dead (validation is the caller's job).
  void Tombstone(PointId id);

  int num_dims_;
  size_t num_points_ = 0;
  size_t base_size_ = 0;
  size_t num_tombstones_ = 0;
  size_t sealed_tombstones_ = 0;
  uint64_t version_ = 0;
  uint64_t last_overwrite_version_ = 0;
  uint64_t last_tombstone_version_ = 0;
  /// Row storage, kChunkRows rows of num_dims_ doubles each. Entries may
  /// be null after ReclaimDeadChunks.
  std::vector<std::unique_ptr<double[]>> chunks_;
  /// Append version per row, chunked like the row data (also append-stable).
  std::vector<std::unique_ptr<uint64_t[]>> version_chunks_;
  /// Tombstone bitmap, bit set = dead. Allocated lazily on first delete;
  /// ids beyond the bitmap are live by definition.
  std::vector<uint64_t> tombstones_;
  std::vector<std::string> names_;
};

/// Per-column summary statistics.
struct ColumnStats {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
};

/// Computes min/max/mean/stddev for every column in one pass over the
/// *live* rows (tombstoned rows are invisible, matching a fresh build on
/// the survivors). stddev is the population standard deviation, accurate
/// for columns whose offset dwarfs their spread; it is NaN or +Inf when the
/// spread overflows a double.
std::vector<ColumnStats> ComputeColumnStats(const Dataset& dataset);

}  // namespace hos::data

#endif  // HOS_DATA_DATASET_H_
