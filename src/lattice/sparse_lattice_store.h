// SparseLatticeStore: the hash-map lattice backend, which kAuto selects at
// every d. Only explicitly *evaluated* masks are stored; every other
// mask is classified on demand against the seed closures (Properties 1-2:
// superset of an outlier seed => inferred outlier, subset of a non-outlier
// seed => inferred non-outlier), so memory scales with the frontier band
// the search actually touches, not with 2^d.
//
// To mirror the dense backend exactly, inference becomes visible only at
// Propagate(): classification runs against a snapshot of the seed
// antichains taken when Propagate last consumed pending seeds, so a mask
// covered only by a seed evaluated since still reads kUndecided — the same
// observable sequence a dense store produces. Undecided sets are never
// materialised: ForEachUndecided walks the level's masks bit by bit from the
// top dimension down, 0 before 1 (ascending — the canonical order all
// backends share), and cuts every branch the moment its decided bits put
// all masks below it inside a seed closure. Its cost follows the undecided
// masks and the seeds, not C(d, m): an outlier with thousands of minimal
// subspaces does not classify every mask of a 10^5..10^6-mask level
// against every seed.
//
// Per-level tallies never sweep masks: Propagate recomputes every level as
// C(d, m) minus the seed-closure sizes from closure_counts.h, a
// branch-and-prune count whose cost follows the seed antichains rather
// than C(d, m). The seed shapes a high-d query leaves — one full-space
// non-outlier, or d outlying singletons — cost a recursion at most d deep
// even at d = 58. The counts are exact; they rely on the OD measure's
// monotonicity (paper §2) making the two closures disjoint — the same
// property the pruning strategies themselves are built on.

#ifndef HOS_LATTICE_SPARSE_LATTICE_STORE_H_
#define HOS_LATTICE_SPARSE_LATTICE_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/lattice/lattice_store.h"

namespace hos::lattice {

class SparseLatticeStore final : public LatticeStore {
 public:
  /// Fresh lattice over d dimensions, everything undecided. Requires
  /// 1 <= d <= kMaxLatticeDims (enforced by MakeLatticeStore).
  explicit SparseLatticeStore(int num_dims);

  std::string_view name() const override { return "sparse"; }

  SubspaceState StateOf(const Subspace& s) const override;

  void Propagate() override;

  void ForEachUndecided(
      int m, const std::function<void(uint64_t)>& fn) const override;

  /// Number of masks held explicitly — the evaluated frontier band. The
  /// inferred remainder of the lattice costs nothing.
  size_t allocated_states() const { return evaluated_.size(); }

 protected:
  void RecordEvaluated(uint64_t mask, SubspaceState state) override {
    evaluated_.emplace(mask, state);
  }

 private:
  /// Classifies a mask that is not in the evaluated map against the seed
  /// closures applied by the last Propagate. Upward pruning is checked
  /// first, matching the dense propagation order.
  SubspaceState ClassifyUnmapped(uint64_t mask) const;

  /// ForEachUndecided's descent: bits above `bit` are decided (`ones` set,
  /// `zeros` clear) and `ones_left` more must be set below it.
  void DescendUndecided(int bit, int ones_left, uint64_t ones, uint64_t zeros,
                        const std::function<void(uint64_t)>& fn) const;

  /// Rebuilds the descent's seed indexes from the applied seeds.
  void IndexAppliedSeeds();

  /// Rebuilds inferred tallies and undecided counts for every level from
  /// the applied closures: per level, |up-closure| and |down-closure| from
  /// the closed-form closure counts, then
  ///   inferred = closure size - evaluated tally,
  ///   undecided = C(d, m) - both closure sizes.
  void RecomputeLevelTallies();

  std::unordered_map<uint64_t, SubspaceState> evaluated_;
  /// Seed masks whose closures Propagate has applied; snapshots of the
  /// minimal/maximal antichains at the last Propagate with pending seeds.
  std::vector<uint64_t> applied_up_seeds_;
  std::vector<uint64_t> applied_down_seeds_;
  /// The applied seeds indexed by the bit whose decision completes them in
  /// the descent, which decides bits from the top down: an outlier seed by
  /// its lowest bit (set to 1), a non-outlier seed by the lowest bit of its
  /// complement (set to 0), stored as that complement. A full-space
  /// non-outlier seed has no complement and covers every mask.
  std::vector<std::vector<uint64_t>> up_seeds_by_low_bit_;
  std::vector<std::vector<uint64_t>> down_complements_by_low_bit_;
  bool down_seed_is_full_space_ = false;
  std::vector<uint64_t> level_size_;  // C(d, m), index by m
};

}  // namespace hos::lattice

#endif  // HOS_LATTICE_SPARSE_LATTICE_STORE_H_
