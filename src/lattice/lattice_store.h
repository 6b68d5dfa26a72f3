// LatticeStore: bookkeeping for a search over the subspace lattice of a
// d-dimensional space (2^d - 1 non-empty subspaces).
//
// Every subspace is in one of five states. Evaluated states come from
// actually computing OD; inferred states come from the paper's two pruning
// strategies (§3.1): a subspace is an *inferred outlier* when it is a
// superset of a known outlying subspace (Property 2 / upward pruning), and
// an *inferred non-outlier* when it is a subset of a known non-outlying
// subspace (Property 1 / downward pruning).
//
// The store keeps the two seed antichains (minimal known outliers, maximal
// known non-outliers), the per-level tallies feeding the TSF formula's
// f_down / f_up fractions, and the pending-seed queues Propagate()
// consumes. Only explicitly *evaluated* masks are stored, in a hash map;
// every other mask is classified on demand against the seed closures, so
// memory scales with the frontier band the search actually touches, not
// with 2^d, and d reaches kMaxLatticeDims (58).
//
// Inference becomes visible only at Propagate(): classification runs
// against a snapshot of the seed antichains taken when Propagate last
// consumed pending seeds, so a mask covered only by a seed evaluated since
// still reads kUndecided. Undecided sets are never materialised:
// ForEachUndecided walks the level's masks bit by bit from the top
// dimension down, 0 before 1 (ascending mask order), and cuts every branch
// the moment its decided bits put all masks below it inside a seed
// closure. Its cost follows the undecided masks and the seeds, not
// C(d, m): an outlier with thousands of minimal subspaces does not
// classify every mask of a 10^5..10^6-mask level against every seed.
//
// Per-level tallies never sweep masks: Propagate recomputes every level as
// C(d, m) minus the seed-closure sizes from closure_counts.h, a
// branch-and-prune count whose cost follows the seed antichains rather
// than C(d, m). The seed shapes a high-d query leaves — one full-space
// non-outlier, or d outlying singletons — cost a recursion at most d deep
// even at d = 58. The counts are exact; they rely on the OD measure's
// monotonicity (paper §2) making the two closures disjoint — the same
// property the pruning strategies themselves are built on.
//
// FreshLattice and FullSpaceInlierLattice (below) are two shared,
// read-only stores per d that every walk starts on, so a walk builds a
// store of its own only when its verdicts leave them.

#ifndef HOS_LATTICE_LATTICE_STORE_H_
#define HOS_LATTICE_LATTICE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/subspace.h"

namespace hos::lattice {

enum class SubspaceState : uint8_t {
  kUndecided = 0,
  kEvaluatedOutlier,
  kEvaluatedNonOutlier,
  kInferredOutlier,     ///< pruned by the upward strategy
  kInferredNonOutlier,  ///< pruned by the downward strategy
};

/// True for the two outlier states.
bool IsOutlierState(SubspaceState s);
/// False only for kUndecided.
bool IsDecided(SubspaceState s);

/// There is one lattice store, so there is nothing to choose. The enum
/// remains only as the type of the inert `lattice_backend` fields of
/// core::QueryOptions and the serving layer's QueryServiceConfig, which
/// e2ebench/main.cc assigns; it goes with them.
enum class LatticeBackend {
  kAuto,
};

/// Hard cap on d: the TSF workload sums reach
/// sum_m m * C(d, m) = d * 2^(d-1), which overflows uint64 past d = 59; 58
/// leaves headroom while the subspace masks themselves are good to 62 bits.
inline constexpr int kMaxLatticeDims = 58;

class LatticeStore {
 public:
  /// Fresh lattice over d dimensions, everything undecided. Requires
  /// 1 <= d <= kMaxLatticeDims (MakeLatticeStore checks it).
  explicit LatticeStore(int num_dims);

  LatticeStore(const LatticeStore&) = delete;
  LatticeStore& operator=(const LatticeStore&) = delete;

  int num_dims() const { return num_dims_; }

  SubspaceState StateOf(const Subspace& s) const;

  /// Records an OD evaluation verdict for `s` and queues it for
  /// propagation. `s` must currently be undecided.
  void MarkEvaluated(const Subspace& s, bool outlier);

  /// Batch form used by the frontier merge: records the verdict
  /// od_values[i] >= threshold for masks[i], in index order — so the seed
  /// lists (and therefore Propagate()) see the sequence of MarkEvaluated
  /// calls over `masks`. Every mask must currently be undecided; no
  /// propagation is performed.
  void MarkEvaluatedBatch(std::span<const uint64_t> masks,
                          std::span<const double> od_values,
                          double threshold);

  /// Applies pending seeds to every undecided subspace: supersets of
  /// outlier seeds become inferred outliers, subsets of non-outlier seeds
  /// become inferred non-outliers. Call after each batch of evaluations.
  void Propagate();

  /// Calls `fn` for every undecided mask at level m, in ascending mask
  /// order — the canonical frontier order. The lattice must not be mutated
  /// during the iteration.
  void ForEachUndecided(int m, const std::function<void(uint64_t)>& fn) const;

  /// Snapshot of the undecided masks at level m, ascending. Owned by the
  /// caller: it stays valid across MarkEvaluated/Propagate.
  std::vector<uint64_t> UndecidedMasks(int m) const;

  /// Number of undecided subspaces at level m.
  uint64_t UndecidedCount(int m) const { return undecided_count_[m]; }

  /// True when every subspace of every level is decided.
  bool AllDecided() const;

  /// C_down_left(m) of Definition 3: sum of dim(s) over undecided s with
  /// dim(s) < m.
  uint64_t RemainingWorkloadBelow(int m) const;
  /// C_up_left(m): sum of dim(s) over undecided s with dim(s) > m.
  uint64_t RemainingWorkloadAbove(int m) const;

  // Per-level tallies (index by level m in 1..d).
  uint64_t EvaluatedOutliers(int m) const { return evaluated_outliers_[m]; }
  uint64_t EvaluatedNonOutliers(int m) const {
    return evaluated_non_outliers_[m];
  }
  uint64_t InferredOutliers(int m) const { return inferred_outliers_[m]; }
  uint64_t InferredNonOutliers(int m) const {
    return inferred_non_outliers_[m];
  }
  /// Total outlying subspaces decided at level m (evaluated + inferred).
  uint64_t OutliersAtLevel(int m) const {
    return evaluated_outliers_[m] + inferred_outliers_[m];
  }

  /// Minimal outlying seeds discovered so far (no seed is a superset of
  /// another). When the search is complete these generate the full outlying
  /// set as their up-closure.
  const std::vector<Subspace>& minimal_outlier_seeds() const {
    return minimal_outlier_seeds_;
  }
  /// Maximal non-outlying seeds (no seed is a subset of another).
  const std::vector<Subspace>& maximal_non_outlier_seeds() const {
    return maximal_non_outlier_seeds_;
  }

  /// All subspaces evaluated as outliers, in evaluation order.
  const std::vector<Subspace>& evaluated_outlier_list() const {
    return evaluated_outlier_list_;
  }

  /// True iff `s` is decided outlying (evaluated or inferred).
  bool IsOutlying(const Subspace& s) const {
    return IsOutlierState(StateOf(s));
  }

  /// Number of masks held explicitly — the evaluated frontier band. The
  /// inferred remainder of the lattice costs nothing.
  size_t allocated_states() const { return evaluated_.size(); }

 private:
  /// Classifies a mask that is not in the evaluated map against the seed
  /// closures applied by the last Propagate, upward pruning first.
  SubspaceState ClassifyUnmapped(uint64_t mask) const;

  /// ForEachUndecided's descent: bits above `bit` are decided (`ones` set,
  /// `zeros` clear) and `ones_left` more must be set below it.
  void DescendUndecided(int bit, int ones_left, uint64_t ones, uint64_t zeros,
                        const std::function<void(uint64_t)>& fn) const;

  /// Empties the pending-seed queues; Propagate calls it once it has
  /// applied them.
  void ClearPendingSeeds();

  /// Rebuilds the descent's seed indexes from the applied seeds.
  void IndexAppliedSeeds();

  /// Rebuilds inferred tallies and undecided counts for every level from
  /// the applied closures: per level, |up-closure| and |down-closure| from
  /// the closed-form closure counts, then
  ///   inferred = closure size - evaluated tally,
  ///   undecided = C(d, m) - both closure sizes.
  void RecomputeLevelTallies();

  int num_dims_;
  std::vector<uint64_t> level_size_;  // C(d, m), index by m
  std::vector<uint64_t> undecided_count_;  // per level
  std::vector<uint64_t> evaluated_outliers_;
  std::vector<uint64_t> evaluated_non_outliers_;
  std::vector<uint64_t> inferred_outliers_;
  std::vector<uint64_t> inferred_non_outliers_;
  std::vector<Subspace> minimal_outlier_seeds_;
  std::vector<Subspace> maximal_non_outlier_seeds_;
  std::vector<Subspace> evaluated_outlier_list_;
  std::vector<uint64_t> pending_outlier_seeds_;
  std::vector<uint64_t> pending_non_outlier_seeds_;
  /// Seeds per level in each antichain, and the lowest (highest) level of
  /// the outliers (non-outliers) pending since the last Propagate; they
  /// let MarkEvaluated skip seed scans that cannot find a nesting pair.
  std::vector<uint64_t> outlier_seeds_per_level_;
  std::vector<uint64_t> non_outlier_seeds_per_level_;
  int pending_outlier_min_level_ = 0;
  int pending_non_outlier_max_level_ = 0;

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
};

/// OK for 1 <= num_dims <= kMaxLatticeDims — the rule MakeLatticeStore
/// enforces — and InvalidArgument naming the supported range otherwise.
Status ValidateLatticeDims(int num_dims);

/// Constructs the lattice store for a d-dimensional search; fails per
/// ValidateLatticeDims.
Result<std::unique_ptr<LatticeStore>> MakeLatticeStore(int num_dims);

/// Reference lattices: two states of a d-dimensional walk, shared by every
/// search in the process, so that a walk needs a store of its own only
/// once its verdicts leave them (BatchFrontierRunner's copy on first
/// write).
///
///  * FreshLattice(d) is LatticeStore(d): every subspace undecided. Every
///    walk starts here.
///  * FullSpaceInlierLattice(d) is LatticeStore(d) after
///    MarkEvaluated(Subspace::Full(d), false) and Propagate(): the full
///    space evaluated non-outlying and, by downward pruning (Property 1),
///    every other subspace inferred non-outlying. Every level is decided.
///
/// Each is built by exactly the calls a walk's private store would
/// receive, so its tallies, seed lists and enumerations are bitwise that
/// store's. Both lattices of one d are built together on first use, under
/// one std::once_flag per d, so dimensionalities no search asks for cost
/// nothing. They are never mutated afterwards, and concurrent const reads
/// are safe: LatticeStore keeps no mutable member, so UndecidedCount,
/// UndecidedMasks / ForEachUndecided, StateOf, the tallies and seed lists
/// (what NextLevel and AssembleOutcome read) only load. Requires
/// 1 <= d <= kMaxLatticeDims.
const LatticeStore& FreshLattice(int num_dims);
const LatticeStore& FullSpaceInlierLattice(int num_dims);

}  // namespace hos::lattice

#endif  // HOS_LATTICE_LATTICE_STORE_H_
