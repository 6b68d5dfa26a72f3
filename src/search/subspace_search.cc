#include "src/search/subspace_search.h"

#include <memory>
#include <utility>
#include <vector>

#include "src/common/timer.h"
#include "src/search/batch_frontier.h"
#include "src/search/frontier_support.h"

namespace hos::search {
namespace {

/// Runs `runner` over a block of one point.
Result<SearchOutcome> RunOne(const BatchFrontierRunner& runner,
                             OdEvaluator* od, double threshold,
                             const SearchExecution& exec) {
  OdEvaluator* const block[] = {od};
  return std::move(runner.Run(block, threshold, exec).front());
}

}  // namespace

DynamicSubspaceSearch::DynamicSubspaceSearch(int num_dims,
                                             lattice::PruningPriors priors)
    : num_dims_(num_dims), priors_(std::move(priors)) {}

Result<SearchOutcome> DynamicSubspaceSearch::RunImpl(
    OdEvaluator* od, double threshold, const SearchExecution& exec) const {
  return RunOne(BatchFrontierRunner(num_dims_, &priors_), od, threshold,
                exec);
}

Result<SearchOutcome> BottomUpSearch::RunImpl(
    OdEvaluator* od, double threshold, const SearchExecution& exec) const {
  return RunOne(BatchFrontierRunner(
                    num_dims_, BatchFrontierRunner::LevelOrder::kBottomUp),
                od, threshold, exec);
}

Result<SearchOutcome> TopDownSearch::RunImpl(
    OdEvaluator* od, double threshold, const SearchExecution& exec) const {
  return RunOne(BatchFrontierRunner(
                    num_dims_, BatchFrontierRunner::LevelOrder::kTopDown),
                od, threshold, exec);
}

Result<SearchOutcome> ExhaustiveSearch::RunImpl(
    OdEvaluator* od, double threshold, const SearchExecution& exec) const {
  Timer timer;
  const uint64_t od_before = od->num_evaluations();
  const uint64_t dist_before = od->engine().distance_computations();
  HOS_ASSIGN_OR_RETURN(std::unique_ptr<lattice::LatticeStore> state,
                       lattice::MakeLatticeStore(num_dims_));
  obs::ScopedSpan strategy_span(exec.tracer, name(), exec.trace_parent);
  // Every subspace is evaluated explicitly, so nothing is left for
  // Propagate() to infer.
  uint64_t steps = 0;
  std::vector<double> values;
  for (int m = 1; m <= num_dims_; ++m) {
    HOS_RETURN_IF_ERROR(internal::CheckSearchBudget(
        exec, *od, od_before, m, state->UndecidedCount(m)));
    const std::vector<uint64_t> masks = state->UndecidedMasks(m);
    values.clear();
    for (uint64_t mask : masks) values.push_back(od->Evaluate(Subspace(mask)));
    state->MarkEvaluatedBatch(masks, values, threshold);
    ++steps;
  }
  return internal::AssembleOutcome(*state, threshold, *od, od_before,
                                   dist_before, steps, timer);
}

}  // namespace hos::search
