#include "src/data/dataset.h"

#include <bit>
#include <cassert>
#include <cmath>

namespace hos::data {

Dataset::Dataset(int num_dims) : num_dims_(num_dims) {
  assert(num_dims >= 1);
  names_.reserve(num_dims);
  for (int i = 0; i < num_dims; ++i) {
    names_.push_back("dim" + std::to_string(i + 1));
  }
}

Dataset::Dataset(const Dataset& other)
    : num_dims_(other.num_dims_),
      num_points_(other.num_points_),
      base_size_(other.base_size_),
      num_tombstones_(other.num_tombstones_),
      sealed_tombstones_(other.sealed_tombstones_),
      version_(other.version_),
      last_overwrite_version_(other.last_overwrite_version_),
      last_tombstone_version_(other.last_tombstone_version_),
      tombstones_(other.tombstones_),
      names_(other.names_) {
  chunks_.reserve(other.chunks_.size());
  for (const auto& chunk : other.chunks_) {
    if (chunk == nullptr) {
      chunks_.push_back(nullptr);
      continue;
    }
    auto copy = std::make_unique<double[]>(kChunkRows *
                                           static_cast<size_t>(num_dims_));
    std::copy(chunk.get(),
              chunk.get() + kChunkRows * static_cast<size_t>(num_dims_),
              copy.get());
    chunks_.push_back(std::move(copy));
  }
  version_chunks_.reserve(other.version_chunks_.size());
  for (const auto& chunk : other.version_chunks_) {
    auto copy = std::make_unique<uint64_t[]>(kChunkRows);
    std::copy(chunk.get(), chunk.get() + kChunkRows, copy.get());
    version_chunks_.push_back(std::move(copy));
  }
}

Dataset& Dataset::operator=(const Dataset& other) {
  if (this != &other) *this = Dataset(other);  // copy-construct, then move
  return *this;
}

Result<Dataset> Dataset::FromRows(
    const std::vector<std::vector<double>>& rows, int num_dims) {
  if (num_dims < 1) {
    return Status::InvalidArgument("num_dims must be >= 1");
  }
  Dataset out(num_dims);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (static_cast<int>(rows[i].size()) != num_dims) {
      return Status::InvalidArgument(
          "row " + std::to_string(i) + " has " +
          std::to_string(rows[i].size()) + " values, expected " +
          std::to_string(num_dims));
    }
    out.Append(rows[i]);
  }
  return out;
}

PointId Dataset::Append(std::span<const double> row) {
  assert(static_cast<int>(row.size()) == num_dims_);
  const size_t slot = num_points_ & kChunkMask;
  if (slot == 0) {
    // New chunk. Only the chunk *directory* grows (pointer vector);
    // existing row storage is untouched, so previously returned Row()
    // spans remain valid.
    chunks_.push_back(
        std::make_unique<double[]>(kChunkRows * static_cast<size_t>(num_dims_)));
    version_chunks_.push_back(std::make_unique<uint64_t[]>(kChunkRows));
  }
  double* dst = chunks_.back().get() + slot * num_dims_;
  std::copy(row.begin(), row.end(), dst);
  ++version_;
  version_chunks_.back()[slot] = version_;
  return static_cast<PointId>(num_points_++);
}

Result<uint64_t> Dataset::AppendRows(
    const std::vector<std::vector<double>>& rows) {
  for (size_t i = 0; i < rows.size(); ++i) {
    if (static_cast<int>(rows[i].size()) != num_dims_) {
      return Status::InvalidArgument(
          "appended row " + std::to_string(i) + " has " +
          std::to_string(rows[i].size()) + " values, expected " +
          std::to_string(num_dims_));
    }
  }
  for (const std::vector<double>& row : rows) Append(row);
  return version_;
}

std::vector<PointId> Dataset::LiveIds() const {
  std::vector<PointId> live;
  live.reserve(live_size());
  for (PointId id = 0; id < num_points_; ++id) {
    if (IsLive(id)) live.push_back(id);
  }
  return live;
}

size_t Dataset::CountLiveBefore(size_t end) const {
  end = std::min(end, num_points_);
  if (tombstones_.empty()) return end;
  size_t dead = 0;
  const size_t full_words = std::min(end >> 6, tombstones_.size());
  for (size_t w = 0; w < full_words; ++w) {
    dead += static_cast<size_t>(std::popcount(tombstones_[w]));
  }
  const size_t tail_word = end >> 6;
  if (tail_word < tombstones_.size() && (end & 63) != 0) {
    const uint64_t mask = (uint64_t{1} << (end & 63)) - 1;
    dead += static_cast<size_t>(std::popcount(tombstones_[tail_word] & mask));
  }
  return end - dead;
}

void Dataset::Tombstone(PointId id) {
  const size_t word = static_cast<size_t>(id) >> 6;
  if (word >= tombstones_.size()) tombstones_.resize(word + 1, 0);
  tombstones_[word] |= uint64_t{1} << (id & 63);
  ++num_tombstones_;
  last_tombstone_version_ = ++version_;
}

Result<uint64_t> Dataset::DeleteRows(std::span<const PointId> ids) {
  // Validate the whole batch before touching anything: all-or-nothing.
  for (PointId id : ids) {
    if (static_cast<size_t>(id) >= num_points_) {
      return Status::OutOfRange("delete id " + std::to_string(id) +
                                " out of range (size " +
                                std::to_string(num_points_) + ")");
    }
    if (!IsLive(id)) {
      return Status::NotFound("row " + std::to_string(id) +
                              " is already deleted");
    }
  }
  if (ids.size() > 1) {
    std::vector<PointId> sorted(ids.begin(), ids.end());
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return Status::InvalidArgument("duplicate id in delete batch");
    }
  }
  for (PointId id : ids) Tombstone(id);
  return version_;
}

size_t Dataset::EvictBefore(uint64_t version) {
  size_t evicted = 0;
  for (size_t id = 0; id < num_points_; ++id) {
    const PointId pid = static_cast<PointId>(id);
    if (IsLive(pid) && RowVersion(pid) < version) {
      Tombstone(pid);
      ++evicted;
    }
  }
  return evicted;
}

size_t Dataset::EvictOldest(size_t n) {
  size_t evicted = 0;
  for (size_t id = 0; id < num_points_ && evicted < n; ++id) {
    const PointId pid = static_cast<PointId>(id);
    if (IsLive(pid)) {
      Tombstone(pid);
      ++evicted;
    }
  }
  return evicted;
}

size_t Dataset::ReclaimDeadChunks() {
  if (tombstones_.empty()) return 0;
  size_t released = 0;
  // Only chunks wholly inside the sealed base are candidates: structures
  // are rebuilt over live rows, so a dead row below the seal is referenced
  // by nothing; delta scans start at base_size_.
  const size_t sealed_chunks = base_size_ >> kChunkShift;
  for (size_t c = 0; c < sealed_chunks; ++c) {
    if (chunks_[c] == nullptr) continue;
    bool all_dead = true;
    for (size_t r = c * kChunkRows; r < (c + 1) * kChunkRows; ++r) {
      if (IsLive(static_cast<PointId>(r))) {
        all_dead = false;
        break;
      }
    }
    if (all_dead) {
      chunks_[c].reset();
      ++released;
    }
  }
  return released;
}

size_t Dataset::allocated_chunks() const {
  size_t n = 0;
  for (const auto& chunk : chunks_) {
    if (chunk != nullptr) ++n;
  }
  return n;
}

std::vector<double> Dataset::RowCopy(PointId id) const {
  auto view = Row(id);
  return {view.begin(), view.end()};
}

Status Dataset::SetColumnNames(std::vector<std::string> names) {
  if (static_cast<int>(names.size()) != num_dims_) {
    return Status::InvalidArgument("expected " + std::to_string(num_dims_) +
                                   " column names, got " +
                                   std::to_string(names.size()));
  }
  names_ = std::move(names);
  return Status::OK();
}

std::vector<ColumnStats> ComputeColumnStats(const Dataset& dataset) {
  const int d = dataset.num_dims();
  std::vector<ColumnStats> stats(d);
  if (dataset.live_size() == 0) return stats;

  // The variance comes from sums of x - shift, where shift is the column's
  // first live value: Σx²/n - mean² cancels catastrophically once a
  // column's offset dwarfs its spread (1e6 + 0.001·i reads stddev 0) and
  // overflows for |x| past ~1e154, while the shifted sums keep the spread's
  // own magnitude.
  std::vector<double> sum(d, 0.0), shift(d, 0.0), shifted_sum(d, 0.0),
      shifted_sum_sq(d, 0.0);
  bool first = true;
  for (PointId i = 0; i < dataset.size(); ++i) {
    if (!dataset.IsLive(i)) continue;
    auto row = dataset.Row(i);
    for (int j = 0; j < d; ++j) {
      double v = row[j];
      if (first) {
        stats[j].min = v;
        stats[j].max = v;
        shift[j] = v;
      } else {
        stats[j].min = std::min(stats[j].min, v);
        stats[j].max = std::max(stats[j].max, v);
      }
      sum[j] += v;
      const double delta = v - shift[j];
      shifted_sum[j] += delta;
      shifted_sum_sq[j] += delta * delta;
    }
    first = false;
  }
  const double n = static_cast<double>(dataset.live_size());
  for (int j = 0; j < d; ++j) {
    stats[j].mean = sum[j] / n;
    const double shifted_mean = shifted_sum[j] / n;
    const double var = shifted_sum_sq[j] / n - shifted_mean * shifted_mean;
    // Rounding may leave a tiny negative variance, which is 0; a NaN or
    // infinite one (the spread overflows a double) stays non-finite.
    stats[j].stddev = var < 0.0 ? 0.0 : std::sqrt(var);
  }
  return stats;
}

}  // namespace hos::data
