// LatticeStore: bookkeeping for a search over the subspace lattice of a
// d-dimensional space (2^d - 1 non-empty subspaces), behind a storage
// interface with two backends.
//
// Every subspace is in one of five states. Evaluated states come from
// actually computing OD; inferred states come from the paper's two pruning
// strategies (§3.1): a subspace is an *inferred outlier* when it is a
// superset of a known outlying subspace (Property 2 / upward pruning), and
// an *inferred non-outlier* when it is a subset of a known non-outlying
// subspace (Property 1 / downward pruning).
//
// The base class owns everything that is storage-independent: the two seed
// antichains (minimal known outliers, maximal known non-outliers), the
// per-level tallies feeding the TSF formula's f_down / f_up fractions, and
// the pending-seed queues Propagate() consumes. Backends differ only in how
// per-mask state is held:
//
//  * DenseLatticeStore  — a flat 2^d byte array plus materialised per-level
//    undecided vectors. O(1) state lookup; memory 2^d, so it is capped at
//    d <= kDenseMaxDims (22).
//  * SparseLatticeStore — a hash map holding only explicitly evaluated
//    masks; everything else is classified on demand against the seed
//    closures, undecided sets are enumerated lazily, and per-level tallies
//    come from closed-form C(d, m) minus seed-closure counts, at a cost
//    set by the seeds rather than by the lattice. Memory scales with the
//    frontier the search touches, lifting the cap to kMaxLatticeDims (58).
//
// MakeLatticeStore picks the sparse backend automatically at every d; the
// dense one is used only when asked for. Both are answer-identical on every
// search strategy (held bitwise by
// tests/search/strategy_differential_test.cc).
//
// FreshLattice and FullSpaceInlierLattice (below) are two shared,
// read-only sparse stores per d that every walk starts on, so a walk
// builds a store of its own only when its verdicts leave them.

#ifndef HOS_LATTICE_LATTICE_STORE_H_
#define HOS_LATTICE_LATTICE_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
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

/// Which storage backend a search's lattice uses. Never changes answers,
/// only memory footprint and the reachable dimensionality range.
enum class LatticeBackend {
  kAuto,    ///< sparse at every d
  kDense,   ///< flat 2^d array; rejects d > kDenseMaxDims
  kSparse,  ///< hash-map frontier band; any d up to kMaxLatticeDims
};

/// The dense backend's flat state array holds 2^d bytes; past 22 dims the
/// allocation alone is > 4 MiB per in-flight query and doubles per dim.
inline constexpr int kDenseMaxDims = 22;

/// Hard cap for any backend: the TSF workload sums reach
/// sum_m m * C(d, m) = d * 2^(d-1), which overflows uint64 past d = 59; 58
/// leaves headroom while the subspace masks themselves are good to 62 bits.
inline constexpr int kMaxLatticeDims = 58;

class LatticeStore {
 public:
  virtual ~LatticeStore() = default;

  LatticeStore(const LatticeStore&) = delete;
  LatticeStore& operator=(const LatticeStore&) = delete;

  int num_dims() const { return num_dims_; }

  /// Backend identifier: "dense" or "sparse".
  virtual std::string_view name() const = 0;

  virtual SubspaceState StateOf(const Subspace& s) const = 0;

  /// Records an OD evaluation verdict for `s` and queues it for
  /// propagation. `s` must currently be undecided.
  void MarkEvaluated(const Subspace& s, bool outlier);

  /// Batch form used by the parallel frontier merge: records the verdict
  /// od_values[i] >= threshold for masks[i], in index order — so the seed
  /// lists (and therefore Propagate()) see the exact sequence a sequential
  /// walk over `masks` would have produced. Every mask must currently be
  /// undecided; no propagation is performed.
  void MarkEvaluatedBatch(std::span<const uint64_t> masks,
                          std::span<const double> od_values,
                          double threshold);

  /// Applies pending seeds to every undecided subspace: supersets of
  /// outlier seeds become inferred outliers, subsets of non-outlier seeds
  /// become inferred non-outliers. Call after each batch of evaluations.
  virtual void Propagate() = 0;

  /// Calls `fn` for every undecided mask at level m, in ascending mask
  /// order — the canonical frontier order every backend and execution mode
  /// shares. The lattice must not be mutated during the iteration.
  virtual void ForEachUndecided(
      int m, const std::function<void(uint64_t)>& fn) const = 0;

  /// Snapshot of the undecided masks at level m, ascending. Owned by the
  /// caller: unlike the reference the old LatticeState::Undecided returned,
  /// it stays valid across MarkEvaluated/Propagate.
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

 protected:
  explicit LatticeStore(int num_dims);

  /// Writes the evaluated state into the backend's per-mask storage. The
  /// base MarkEvaluated has already asserted the mask was undecided and
  /// handles seeds, tallies and the undecided count.
  virtual void RecordEvaluated(uint64_t mask, SubspaceState state) = 0;

  /// Empties the pending-seed queues; Propagate calls it once it has
  /// applied them.
  void ClearPendingSeeds();

  int num_dims_;
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

 private:
  /// Seeds per level in each antichain, and the lowest (highest) level of
  /// the outliers (non-outliers) pending since the last Propagate; they
  /// let MarkEvaluated skip seed scans that cannot find a nesting pair.
  std::vector<uint64_t> outlier_seeds_per_level_;
  std::vector<uint64_t> non_outlier_seeds_per_level_;
  int pending_outlier_min_level_ = 0;
  int pending_non_outlier_max_level_ = 0;
};

/// Validates a (dimensionality, backend) pair without constructing a
/// store — the exact rules MakeLatticeStore enforces. Returns
/// InvalidArgument (naming the supported range) for d outside
/// 1..kMaxLatticeDims, or for a forced dense backend with
/// d > kDenseMaxDims.
Status ValidateLatticeStoreConfig(int num_dims, LatticeBackend backend);

/// Constructs the lattice store for a d-dimensional search. kAuto picks
/// the sparse backend; invalid configurations fail per
/// ValidateLatticeStoreConfig.
Result<std::unique_ptr<LatticeStore>> MakeLatticeStore(
    int num_dims, LatticeBackend backend = LatticeBackend::kAuto);

/// Reference lattices: two states of a d-dimensional walk, shared by every
/// search in the process, so that a walk needs a store of its own only
/// once its verdicts leave them (BatchFrontierRunner's copy on first
/// write).
///
///  * FreshLattice(d) is SparseLatticeStore(d): every subspace undecided.
///    Every walk starts here.
///  * FullSpaceInlierLattice(d) is SparseLatticeStore(d) after
///    MarkEvaluated(Subspace::Full(d), false) and Propagate(): the full
///    space evaluated non-outlying and, by downward pruning (Property 1),
///    every other subspace inferred non-outlying. Every level is decided.
///
/// Each is built by exactly the calls a walk's private sparse store would
/// receive, so its tallies, seed lists and enumerations are bitwise that
/// store's. Both lattices of one d are built together on first use, under
/// one std::once_flag per d, so dimensionalities no search asks for cost
/// nothing. They are never mutated afterwards, and concurrent const reads
/// are safe: SparseLatticeStore keeps no mutable member, so UndecidedCount,
/// UndecidedMasks / ForEachUndecided, StateOf, the tallies and seed lists
/// (what NextLevel and AssembleOutcome read) only load. Requires
/// 1 <= d <= kMaxLatticeDims.
const LatticeStore& FreshLattice(int num_dims);
const LatticeStore& FullSpaceInlierLattice(int num_dims);

}  // namespace hos::lattice

#endif  // HOS_LATTICE_LATTICE_STORE_H_
