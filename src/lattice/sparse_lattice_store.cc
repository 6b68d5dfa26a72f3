#include "src/lattice/sparse_lattice_store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <vector>

#include "src/common/combinatorics.h"
#include "src/lattice/closure_counts.h"

namespace hos::lattice {

SparseLatticeStore::SparseLatticeStore(int num_dims)
    : LatticeStore(num_dims),
      up_seeds_by_low_bit_(num_dims),
      down_complements_by_low_bit_(num_dims) {
  level_size_.assign(num_dims + 1, 0);
  for (int m = 1; m <= num_dims; ++m) {
    level_size_[m] = Binomial(num_dims, m);
    undecided_count_[m] = level_size_[m];
  }
}

SubspaceState SparseLatticeStore::ClassifyUnmapped(uint64_t mask) const {
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

SubspaceState SparseLatticeStore::StateOf(const Subspace& s) const {
  const auto it = evaluated_.find(s.mask());
  if (it != evaluated_.end()) return it->second;
  return ClassifyUnmapped(s.mask());
}

void SparseLatticeStore::ForEachUndecided(
    int m, const std::function<void(uint64_t)>& fn) const {
  if (undecided_count_[m] == 0 || down_seed_is_full_space_) return;
  DescendUndecided(num_dims_ - 1, m, 0, 0, fn);
}

void SparseLatticeStore::DescendUndecided(
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

void SparseLatticeStore::Propagate() {
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

void SparseLatticeStore::IndexAppliedSeeds() {
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

void SparseLatticeStore::RecomputeLevelTallies() {
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
    // are the per-level inferred tallies a dense propagation sweep counts.
    // Should floating-point rounding ever produce a monotonicity-violating
    // verdict pair, the closed-form counts would double-count their overlap;
    // saturate instead of wrapping so the tallies stay in range and the
    // search still terminates (the dense backend degrades by propagate
    // order in the same never-observed regime — the debug asserts keep the
    // condition loud).
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

}  // namespace hos::lattice
