// BatchFrontierRunner: the one runner of every pruning lattice walk. It
// runs the levelwise search of a block of query points that share one
// threshold in lockstep rounds: each round, every live point picks its
// next level, resolves what its memo and the density filter can, and the
// rest of the block's undecided subspaces are evaluated once per distinct
// mask. Each mask is served by ONE call of the kNN engine's batched
// entry point (KnnEngine::SearchBatch), however many points need it. A single query is a block of one:
// DynamicSubspaceSearch, BottomUpSearch and TopDownSearch each run this
// runner over their one point.
//
// Level order. The rule that picks each point's next level comes from the
// strategy that builds the runner: the highest Total Saving Factor over
// the pruning priors (paper §3.3), or the lowest / highest level that
// still has undecided subspaces (the static ablations). Propagation only
// ever decides more subspaces, so the static rules visit exactly the
// levels a `for m` loop over 1..d (or d..1) would.
//
// Why a block's per-point answers equal its points' runs one at a time:
// each point's walk is a deterministic function of (a) the level rule and
// (b) that point's own OD values — level choice reads only the point's
// own lattice state, pruning propagates only within the point's own
// lattice, and the density filter decides from the point's own cells.
// OD(p, s) is a pure function of the dataset, k and the metric, and the
// batched kNN entry points return bitwise-identical values to their
// per-point forms (held by the backend batch tests). So every round
// advances each live point by exactly the level its own walk picks next,
// while the engine serves coinciding evaluations fused.
// tests/search/batch_differential_test.cc holds this across backends,
// lattice stores and filter modes.
//
// Copy on first write. A walk does not build a lattice store up front: it
// starts on lattice::FreshLattice(d), a shared immutable store, and reads
// it for its first NextLevel, budget check and wave. At its first merge it
// leaves the shared state. If that round was level d (the full space) and
// its value fails the test MarkEvaluatedBatch applies (!(od >= T)), the
// walk moves to lattice::FullSpaceInlierLattice(d), which was built by
// exactly the MarkEvaluated and Propagate calls its own store would have
// received. Every level is decided there, so the next round's NextLevel
// returns 0 and AssembleOutcome reads the shared lattice. A full-space
// inlier (paper §3.1, Property 1: an outlier in no subspace) is thus
// answered by its one OD probe, without constructing, marking or
// propagating a store. Any other first merge builds the walk's own store
// (MakeLatticeStore with the requested backend) and merges into it as
// before. Each lattice state a walk reads is therefore the state its
// private sparse store would hold. A kDense request reads the sparse
// reference lattices until its first write; the two backends are answer-
// and counter-identical, held by strategy_differential_test. The rounds
// themselves are untouched: the full space still goes through the memo,
// the filter and the batched kNN call, so values, bound decisions, steps
// and the strategy, wave and kNN spans are what they were.
//
// Parallel fan-out. With SearchExecution::pool set, a round's distinct
// masks are evaluated on the pool in deterministic chunks (about four per
// worker). Each mask's values land in pre-assigned slots, and every
// OdEvaluator::Deposit happens afterwards on the calling thread in
// canonical mask order, so neither scheduling nor completion order can
// reach an answer or a counter. Without a pool the same loop runs inline.
//
// What is NOT identical across block widths (monitoring values only):
//  * counters.distance_computations / elapsed_seconds — the engine's work
//    counters are shared by the whole block, so a point's delta includes
//    its block-mates' fused work.
//  * With a SharedOdStore attached, block-mates may populate the store for
//    each other, changing hit/computed tallies (exactly as two runs with
//    different cache warmth already do). Values never change — the store
//    only ever returns bitwise-identical memoised doubles.

#ifndef HOS_SEARCH_BATCH_FRONTIER_H_
#define HOS_SEARCH_BATCH_FRONTIER_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/lattice/saving_factors.h"
#include "src/search/od_evaluator.h"
#include "src/search/search_execution.h"
#include "src/search/search_result.h"

namespace hos::search {

class BatchFrontierRunner {
 public:
  /// Which level a point's walk evaluates next.
  enum class LevelOrder : uint8_t {
    kSavingFactor,  ///< highest TSF over the priors (paper §3.3)
    kBottomUp,      ///< lowest level with undecided subspaces
    kTopDown,       ///< highest level with undecided subspaces
  };

  /// The dynamic search: levels by TSF. `priors` must outlive the runner
  /// and cover `num_dims` dimensions (checked in Run).
  BatchFrontierRunner(int num_dims, const lattice::PruningPriors* priors)
      : num_dims_(num_dims), order_(LevelOrder::kSavingFactor),
        priors_(priors) {}

  /// A static level order (kBottomUp or kTopDown); no priors.
  BatchFrontierRunner(int num_dims, LevelOrder order)
      : num_dims_(num_dims), order_(order), priors_(nullptr) {
    assert(order != LevelOrder::kSavingFactor);
  }

  /// Name of the strategy this runner walks as; also its trace span.
  std::string_view name() const;

  /// Runs the search for every evaluator in `ods` (all bound to the same
  /// engine, k and shared store; one per query point). Returns one outcome
  /// per point, in input order. outcomes[i]'s answer content (minimal
  /// outlying subspaces, evaluated outliers, outlier fractions,
  /// lattice-derived counters, budget errors) equals what a run over
  /// ods[i] alone returns — see the header comment for the argument and
  /// the monitoring-only exceptions. Per-point budget exhaustion fails
  /// only that point; its block-mates keep running.
  std::vector<Result<SearchOutcome>> Run(std::span<OdEvaluator* const> ods,
                                         double threshold,
                                         const SearchExecution& exec) const;

 private:
  /// The level `state` evaluates next under order_; 0 when all decided.
  int NextLevel(const lattice::LatticeStore& state) const;

  int num_dims_;
  LevelOrder order_;
  const lattice::PruningPriors* priors_;
};

}  // namespace hos::search

#endif  // HOS_SEARCH_BATCH_FRONTIER_H_
