#include "src/lattice/lattice_store.h"

#include <algorithm>
#include <cassert>
#include <string>

#include "src/lattice/dense_lattice_store.h"
#include "src/lattice/sparse_lattice_store.h"

namespace hos::lattice {

bool IsOutlierState(SubspaceState s) {
  return s == SubspaceState::kEvaluatedOutlier ||
         s == SubspaceState::kInferredOutlier;
}

bool IsDecided(SubspaceState s) { return s != SubspaceState::kUndecided; }

LatticeStore::LatticeStore(int num_dims) : num_dims_(num_dims) {
  assert(num_dims >= 1 && num_dims <= kMaxLatticeDims);
  undecided_count_.assign(num_dims + 1, 0);
  evaluated_outliers_.assign(num_dims + 1, 0);
  evaluated_non_outliers_.assign(num_dims + 1, 0);
  inferred_outliers_.assign(num_dims + 1, 0);
  inferred_non_outliers_.assign(num_dims + 1, 0);
  outlier_seeds_per_level_.assign(num_dims + 1, 0);
  non_outlier_seeds_per_level_.assign(num_dims + 1, 0);
  ClearPendingSeeds();
}

void LatticeStore::MarkEvaluated(const Subspace& s, bool outlier) {
  assert(StateOf(s) == SubspaceState::kUndecided);
  const int m = s.Dimensionality();
  const auto any_at = [](const std::vector<uint64_t>& per_level, int lo,
                         int hi) {
    return std::any_of(per_level.begin() + lo, per_level.begin() + hi,
                       [](uint64_t n) { return n != 0; });
  };
  // Both seed lists are kept antichains. `s` is undecided, so no seed
  // applied at the last Propagate nests it: only a seed marked since, on
  // a strictly lower (outlier) or higher (non-outlier) level, can dominate
  // it, and only seeds on the far side of level m can be dropped. The
  // level bounds skip both scans for a single-level wave.
  if (outlier) {
    RecordEvaluated(s.mask(), SubspaceState::kEvaluatedOutlier);
    ++evaluated_outliers_[m];
    evaluated_outlier_list_.push_back(s);
    bool dominated = false;
    if (pending_outlier_min_level_ < m) {
      dominated = std::any_of(
          minimal_outlier_seeds_.begin(), minimal_outlier_seeds_.end(),
          [&](const Subspace& seed) { return seed.IsSubsetOf(s); });
    }
    if (!dominated) {
      if (any_at(outlier_seeds_per_level_, m + 1, num_dims_ + 1)) {
        std::erase_if(minimal_outlier_seeds_, [&](const Subspace& seed) {
          if (!s.IsProperSubsetOf(seed)) return false;
          --outlier_seeds_per_level_[seed.Dimensionality()];
          return true;
        });
      }
      minimal_outlier_seeds_.push_back(s);
      ++outlier_seeds_per_level_[m];
    }
    pending_outlier_seeds_.push_back(s.mask());
    pending_outlier_min_level_ = std::min(pending_outlier_min_level_, m);
  } else {
    RecordEvaluated(s.mask(), SubspaceState::kEvaluatedNonOutlier);
    ++evaluated_non_outliers_[m];
    bool dominated = false;
    if (pending_non_outlier_max_level_ > m) {
      dominated = std::any_of(
          maximal_non_outlier_seeds_.begin(), maximal_non_outlier_seeds_.end(),
          [&](const Subspace& seed) { return s.IsSubsetOf(seed); });
    }
    if (!dominated) {
      if (any_at(non_outlier_seeds_per_level_, 1, m)) {
        std::erase_if(maximal_non_outlier_seeds_, [&](const Subspace& seed) {
          if (!seed.IsProperSubsetOf(s)) return false;
          --non_outlier_seeds_per_level_[seed.Dimensionality()];
          return true;
        });
      }
      maximal_non_outlier_seeds_.push_back(s);
      ++non_outlier_seeds_per_level_[m];
    }
    pending_non_outlier_seeds_.push_back(s.mask());
    pending_non_outlier_max_level_ = std::max(pending_non_outlier_max_level_, m);
  }
  --undecided_count_[m];
}

void LatticeStore::ClearPendingSeeds() {
  pending_outlier_seeds_.clear();
  pending_non_outlier_seeds_.clear();
  pending_outlier_min_level_ = num_dims_ + 1;
  pending_non_outlier_max_level_ = 0;
}

void LatticeStore::MarkEvaluatedBatch(std::span<const uint64_t> masks,
                                      std::span<const double> od_values,
                                      double threshold) {
  assert(masks.size() == od_values.size());
  for (size_t i = 0; i < masks.size(); ++i) {
    MarkEvaluated(Subspace(masks[i]), od_values[i] >= threshold);
  }
}

std::vector<uint64_t> LatticeStore::UndecidedMasks(int m) const {
  std::vector<uint64_t> out;
  // Cap the up-front reservation: a non-band-shaped high-d search can
  // leave astronomically many masks undecided at a mid level, and letting
  // reserve() attempt a multi-terabyte allocation would terminate the
  // whole process (uncaught length_error) instead of leaving the — already
  // intractable — enumeration to the caller's judgement.
  out.reserve(std::min(undecided_count_[m], uint64_t{1} << 22));
  ForEachUndecided(m, [&out](uint64_t mask) { out.push_back(mask); });
  return out;
}

bool LatticeStore::AllDecided() const {
  for (int m = 1; m <= num_dims_; ++m) {
    if (undecided_count_[m] != 0) return false;
  }
  return true;
}

uint64_t LatticeStore::RemainingWorkloadBelow(int m) const {
  uint64_t sum = 0;
  for (int i = 1; i < m; ++i) {
    sum += undecided_count_[i] * static_cast<uint64_t>(i);
  }
  return sum;
}

uint64_t LatticeStore::RemainingWorkloadAbove(int m) const {
  uint64_t sum = 0;
  for (int i = m + 1; i <= num_dims_; ++i) {
    sum += undecided_count_[i] * static_cast<uint64_t>(i);
  }
  return sum;
}

Status ValidateLatticeStoreConfig(int num_dims, LatticeBackend backend) {
  if (num_dims < 1 || num_dims > kMaxLatticeDims) {
    return Status::InvalidArgument(
        "lattice searches support 1.." + std::to_string(kMaxLatticeDims) +
        " dimensions (workload tallies must stay within uint64); got d=" +
        std::to_string(num_dims));
  }
  if (backend == LatticeBackend::kDense && num_dims > kDenseMaxDims) {
    return Status::InvalidArgument(
        "the dense lattice backend supports 1.." +
        std::to_string(kDenseMaxDims) + " dimensions (flat 2^d state array); "
        "got d=" + std::to_string(num_dims) +
        " — use LatticeBackend::kSparse or kAuto");
  }
  return Status::OK();
}

Result<std::unique_ptr<LatticeStore>> MakeLatticeStore(
    int num_dims, LatticeBackend backend) {
  Status valid = ValidateLatticeStoreConfig(num_dims, backend);
  if (!valid.ok()) return valid;
  if (backend == LatticeBackend::kDense) {
    return std::unique_ptr<LatticeStore>(
        std::make_unique<DenseLatticeStore>(num_dims));
  }
  return std::unique_ptr<LatticeStore>(
      std::make_unique<SparseLatticeStore>(num_dims));
}

}  // namespace hos::lattice
