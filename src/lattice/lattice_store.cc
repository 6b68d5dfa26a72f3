#include "src/lattice/lattice_store.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <mutex>
#include <string>

#include "src/common/combinatorics.h"
#include "src/lattice/closure_counts.h"

namespace hos::lattice {
namespace {

/// The two reference lattices of one dimensionality.
struct ReferenceLattices {
  std::once_flag built;
  std::unique_ptr<LatticeStore> fresh;
  std::unique_ptr<LatticeStore> full_space_inlier;
};

const ReferenceLattices& ReferenceLatticesFor(int num_dims) {
  assert(num_dims >= 1 && num_dims <= kMaxLatticeDims);
  static std::array<ReferenceLattices, kMaxLatticeDims + 1> table;
  ReferenceLattices& refs = table[num_dims];
  std::call_once(refs.built, [&refs, num_dims] {
    refs.fresh = std::make_unique<LatticeStore>(num_dims);
    refs.full_space_inlier = std::make_unique<LatticeStore>(num_dims);
    refs.full_space_inlier->MarkEvaluated(Subspace::Full(num_dims), false);
    refs.full_space_inlier->Propagate();
  });
  return refs;
}

}  // namespace

bool IsOutlierState(SubspaceState s) {
  return s == SubspaceState::kEvaluatedOutlier ||
         s == SubspaceState::kInferredOutlier;
}

bool IsDecided(SubspaceState s) { return s != SubspaceState::kUndecided; }

LatticeStore::LatticeStore(int num_dims)
    : num_dims_(num_dims),
      up_seeds_by_low_bit_(num_dims),
      down_complements_by_low_bit_(num_dims) {
  assert(num_dims >= 1 && num_dims <= kMaxLatticeDims);
  level_size_.assign(num_dims + 1, 0);
  undecided_count_.assign(num_dims + 1, 0);
  for (int m = 1; m <= num_dims; ++m) {
    level_size_[m] = Binomial(num_dims, m);
    undecided_count_[m] = level_size_[m];
  }
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
    evaluated_.emplace(s.mask(), SubspaceState::kEvaluatedOutlier);
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
    evaluated_.emplace(s.mask(), SubspaceState::kEvaluatedNonOutlier);
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

SubspaceState LatticeStore::ClassifyUnmapped(uint64_t mask) const {
  // Every seed is itself evaluated (and therefore in the map), so on this
  // path mask != seed always holds and non-strict containment suffices.
  for (uint64_t seed : applied_up_seeds_) {
    if ((mask & seed) == seed) return SubspaceState::kInferredOutlier;
  }
  for (uint64_t seed : applied_down_seeds_) {
    if ((mask & seed) == mask) return SubspaceState::kInferredNonOutlier;
  }
  return SubspaceState::kUndecided;
}

SubspaceState LatticeStore::StateOf(const Subspace& s) const {
  const auto it = evaluated_.find(s.mask());
  if (it != evaluated_.end()) return it->second;
  return ClassifyUnmapped(s.mask());
}

void LatticeStore::ForEachUndecided(
    int m, const std::function<void(uint64_t)>& fn) const {
  if (undecided_count_[m] == 0 || down_seed_is_full_space_) return;
  DescendUndecided(num_dims_ - 1, m, 0, 0, fn);
}

void LatticeStore::DescendUndecided(
    int bit, int ones_left, uint64_t ones, uint64_t zeros,
    const std::function<void(uint64_t)>& fn) const {
  if (bit < 0) {
    // Covered by no applied seed; only an evaluation since the last
    // Propagate can still have decided it.
    if (!evaluated_.contains(ones)) fn(ones);
    return;
  }
  const auto any_within = [](const std::vector<uint64_t>& sets,
                             uint64_t bits) {
    return std::any_of(sets.begin(), sets.end(),
                       [bits](uint64_t set) { return (set & bits) == set; });
  };
  const uint64_t b = uint64_t{1} << bit;
  // The 0-branch first keeps the output in ascending mask order. A 0 here
  // completes the complements indexed at this bit: once one lies in the
  // zeros, every mask below is a subset of its non-outlier seed.
  if (ones_left <= bit &&
      !any_within(down_complements_by_low_bit_[bit], zeros | b)) {
    DescendUndecided(bit - 1, ones_left, ones, zeros | b, fn);
  }
  // A 1 completes the outlier seeds indexed here: once one lies in the
  // ones, every mask below is a superset of it.
  if (ones_left > 0 && !any_within(up_seeds_by_low_bit_[bit], ones | b)) {
    DescendUndecided(bit - 1, ones_left - 1, ones | b, zeros, fn);
  }
}

void LatticeStore::Propagate() {
  if (pending_outlier_seeds_.empty() && pending_non_outlier_seeds_.empty()) {
    return;
  }
  // Applying the pending seeds makes the decided region exactly the
  // closures of the *current* antichains (the up-closure of the minimal
  // outlier seeds equals the up-closure of every outlier ever evaluated,
  // and dually below), so the snapshot is the whole truth.
  applied_up_seeds_.clear();
  applied_up_seeds_.reserve(minimal_outlier_seeds_.size());
  for (const Subspace& s : minimal_outlier_seeds_) {
    applied_up_seeds_.push_back(s.mask());
  }
  applied_down_seeds_.clear();
  applied_down_seeds_.reserve(maximal_non_outlier_seeds_.size());
  for (const Subspace& s : maximal_non_outlier_seeds_) {
    applied_down_seeds_.push_back(s.mask());
  }
  ClearPendingSeeds();
  IndexAppliedSeeds();
  RecomputeLevelTallies();
}

void LatticeStore::IndexAppliedSeeds() {
  const uint64_t full = Subspace::Full(num_dims_).mask();
  for (int bit = 0; bit < num_dims_; ++bit) {
    up_seeds_by_low_bit_[bit].clear();
    down_complements_by_low_bit_[bit].clear();
  }
  down_seed_is_full_space_ = false;
  for (uint64_t seed : applied_up_seeds_) {
    up_seeds_by_low_bit_[std::countr_zero(seed)].push_back(seed);
  }
  for (uint64_t seed : applied_down_seeds_) {
    const uint64_t complement = ~seed & full;
    if (complement == 0) {
      down_seed_is_full_space_ = true;
    } else {
      down_complements_by_low_bit_[std::countr_zero(complement)].push_back(
          complement);
    }
  }
}

void LatticeStore::RecomputeLevelTallies() {
  const int d = num_dims_;
  // One closure count per side covers every level; its cost follows the
  // seed antichains, not C(d, m).
  const std::vector<uint64_t> up_closed =
      UpClosureLevelCounts(applied_up_seeds_, d);
  const std::vector<uint64_t> down_closed =
      DownClosureLevelCounts(applied_down_seeds_, d);

  for (int m = 1; m <= d; ++m) {
    const uint64_t up = up_closed[m];
    const uint64_t down = down_closed[m];
    // By OD monotonicity the two closures are disjoint and contain exactly
    // the evaluated masks of their own polarity, so the subtractions below
    // are the per-level inferred tallies. Should floating-point rounding
    // ever produce a monotonicity-violating verdict pair, the closed-form
    // counts would double-count their overlap; saturate instead of wrapping
    // so the tallies stay in range and the search still terminates (the
    // debug asserts keep the condition loud).
    assert(up >= evaluated_outliers_[m]);
    assert(down >= evaluated_non_outliers_[m]);
    assert(up + down <= level_size_[m]);
    const uint64_t decided = std::min(up + down, level_size_[m]);
    inferred_outliers_[m] =
        up > evaluated_outliers_[m] ? up - evaluated_outliers_[m] : 0;
    inferred_non_outliers_[m] =
        down > evaluated_non_outliers_[m] ? down - evaluated_non_outliers_[m]
                                          : 0;
    undecided_count_[m] = level_size_[m] - decided;
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

Status ValidateLatticeDims(int num_dims) {
  if (num_dims < 1 || num_dims > kMaxLatticeDims) {
    return Status::InvalidArgument(
        "lattice searches support 1.." + std::to_string(kMaxLatticeDims) +
        " dimensions (workload tallies must stay within uint64); got d=" +
        std::to_string(num_dims));
  }
  return Status::OK();
}

Result<std::unique_ptr<LatticeStore>> MakeLatticeStore(int num_dims) {
  HOS_RETURN_IF_ERROR(ValidateLatticeDims(num_dims));
  return std::make_unique<LatticeStore>(num_dims);
}

const LatticeStore& FreshLattice(int num_dims) {
  return *ReferenceLatticesFor(num_dims).fresh;
}

const LatticeStore& FullSpaceInlierLattice(int num_dims) {
  return *ReferenceLatticesFor(num_dims).full_space_inlier;
}

}  // namespace hos::lattice
