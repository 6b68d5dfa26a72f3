// Shared internals of the frontier runner (batch_frontier.cc) and the
// exhaustive oracle (subspace_search.cc): one work-budget gate and one
// SearchOutcome assembly, so every strategy keeps the same error contract
// and counter semantics — the differential suites compare budget errors
// and outcome fields across them exactly.

#ifndef HOS_SEARCH_FRONTIER_SUPPORT_H_
#define HOS_SEARCH_FRONTIER_SUPPORT_H_

#include <cassert>
#include <cstdint>
#include <string>

#include "src/common/combinatorics.h"
#include "src/common/timer.h"
#include "src/filter/minimal_filter.h"
#include "src/lattice/lattice_store.h"
#include "src/search/od_evaluator.h"
#include "src/search/search_execution.h"
#include "src/search/search_result.h"

namespace hos::search::internal {

/// Work-budget gate (SearchExecution::max_od_evaluations), consulted before
/// a level batch is materialised: spending so far plus the level's
/// undecided count must fit the budget, so a runaway query fails fast
/// instead of allocating (or evaluating) an astronomically large wave.
inline Status CheckSearchBudget(const SearchExecution& exec,
                                const OdEvaluator& od,
                                uint64_t evals_at_start, int level,
                                uint64_t level_count) {
  if (exec.max_od_evaluations == 0) return Status::OK();
  const uint64_t spent = od.num_evaluations() - evals_at_start;
  if (spent + level_count <= exec.max_od_evaluations) return Status::OK();
  const uint64_t remaining =
      exec.max_od_evaluations > spent ? exec.max_od_evaluations - spent : 0;
  return Status::ResourceExhausted(
      "search work budget exceeded: level " + std::to_string(level) +
      " holds " + std::to_string(level_count) +
      " undecided subspaces, but only " + std::to_string(remaining) +
      " of the " + std::to_string(exec.max_od_evaluations) +
      " budgeted OD evaluations remain (raise "
      "SearchExecution::max_od_evaluations, use a band-pruning-friendly "
      "strategy, or reduce dimensionality)");
}

/// Assembles the SearchOutcome once the lattice is fully decided.
inline SearchOutcome AssembleOutcome(
    const lattice::LatticeStore& state, double threshold,
    const OdEvaluator& od, uint64_t od_evals_before, uint64_t dist_before,
    uint64_t steps, const Timer& timer, uint64_t bound_decisions = 0,
    uint64_t risky_decisions = 0, double bound_gap = 0.0,
    uint64_t gate_skips = 0) {
  assert(state.AllDecided());
  const int d = state.num_dims();
  SearchOutcome outcome;
  outcome.num_dims = d;
  outcome.threshold = threshold;
  outcome.evaluated_outliers = state.evaluated_outlier_list();
  outcome.minimal_outlying_subspaces =
      filter::MinimalSubspaces(state.minimal_outlier_seeds());
  outcome.outlier_fraction.assign(d + 1, 0.0);
  for (int m = 1; m <= d; ++m) {
    outcome.outlier_fraction[m] =
        static_cast<double>(state.OutliersAtLevel(m)) /
        static_cast<double>(Binomial(d, m));
    outcome.counters.pruned_upward += state.InferredOutliers(m);
    outcome.counters.pruned_downward += state.InferredNonOutliers(m);
  }
  outcome.counters.od_evaluations = od.num_evaluations() - od_evals_before;
  outcome.counters.distance_computations =
      od.engine().distance_computations() - dist_before;
  outcome.counters.steps = steps;
  outcome.counters.bound_decisions = bound_decisions;
  outcome.counters.risky_decisions = risky_decisions;
  outcome.counters.bound_gap = bound_gap;
  outcome.counters.gate_skips = gate_skips;
  outcome.counters.elapsed_seconds = timer.ElapsedSeconds();
  return outcome;
}

}  // namespace hos::search::internal

#endif  // HOS_SEARCH_FRONTIER_SUPPORT_H_
