// The lattice search strategies.
//
//  * DynamicSubspaceSearch — the paper's §3.3 algorithm: repeatedly pick
//    the level with the highest Total Saving Factor, evaluate its remaining
//    subspaces, apply both pruning strategies, update TSF, repeat.
//  * ExhaustiveSearch     — evaluates every one of the 2^d - 1 subspaces in
//    a plain sequential sweep; the correctness oracle and the "no pruning"
//    efficiency baseline.
//  * BottomUpSearch       — static level order 1..d with pruning (ablation).
//  * TopDownSearch        — static level order d..1 with pruning (ablation).
//
// All strategies produce identical answer sets (tested); they differ only
// in how much work they perform.
//
// The three pruning strategies share one runner: each runs
// search::BatchFrontierRunner over a block of one point with its own
// level order, on the calling thread. The lattice itself is a
// lattice::LatticeStore, which holds only the evaluated masks and
// classifies the rest against its seeds, so one store serves every d up
// to lattice::kMaxLatticeDims. tests/search/strategy_differential_test.cc
// holds every strategy to bitwise-identical answers and OD values against
// the exhaustive oracle.

#ifndef HOS_SEARCH_SUBSPACE_SEARCH_H_
#define HOS_SEARCH_SUBSPACE_SEARCH_H_

#include <memory>
#include <string_view>

#include "src/common/result.h"
#include "src/lattice/saving_factors.h"
#include "src/search/od_evaluator.h"
#include "src/search/search_execution.h"
#include "src/search/search_result.h"

namespace hos::search {

/// Interface shared by every strategy so experiments can sweep them.
class SubspaceSearch {
 public:
  virtual ~SubspaceSearch() = default;

  virtual std::string_view name() const = 0;

  /// Runs a complete search for the evaluator's query point: on return
  /// every subspace is decided. `threshold` is the paper's T; a subspace s
  /// is outlying iff OD(p, s) >= T. `exec` sets the work budget, the
  /// density filter and the trace sink. Returns InvalidArgument when the
  /// strategy's configuration is inconsistent (priors sized for a
  /// different dimensionality, or num_dims outside
  /// 1..lattice::kMaxLatticeDims), and ResourceExhausted when
  /// `exec.max_od_evaluations` is set and the next level batch would push
  /// fresh OD evaluations past it (the guard for runaway exhaustive /
  /// non-band queries at high d).
  Result<SearchOutcome> Run(OdEvaluator* od, double threshold,
                            const SearchExecution& exec) const {
    return RunImpl(od, threshold, exec);
  }
  Result<SearchOutcome> Run(OdEvaluator* od, double threshold) const {
    return RunImpl(od, threshold, SearchExecution{});
  }

 protected:
  virtual Result<SearchOutcome> RunImpl(OdEvaluator* od, double threshold,
                                        const SearchExecution& exec) const = 0;
};

/// The HOS-Miner dynamic subspace search (paper §3.3), guided by TSF with
/// the given pruning-probability priors (flat for sample points, learned
/// for query points — §3.2).
class DynamicSubspaceSearch : public SubspaceSearch {
 public:
  DynamicSubspaceSearch(int num_dims, lattice::PruningPriors priors);

  std::string_view name() const override { return "dynamic"; }

  const lattice::PruningPriors& priors() const { return priors_; }

 protected:
  Result<SearchOutcome> RunImpl(OdEvaluator* od, double threshold,
                                const SearchExecution& exec) const override;

 private:
  int num_dims_;
  lattice::PruningPriors priors_;
};

/// Evaluates all 2^d - 1 subspaces, level by level. No pruning; ignores
/// exec.filter.
class ExhaustiveSearch : public SubspaceSearch {
 public:
  explicit ExhaustiveSearch(int num_dims) : num_dims_(num_dims) {}

  std::string_view name() const override { return "exhaustive"; }

 protected:
  Result<SearchOutcome> RunImpl(OdEvaluator* od, double threshold,
                                const SearchExecution& exec) const override;

 private:
  int num_dims_;
};

/// Static levelwise search from 1-dimensional subspaces upward, with both
/// pruning strategies active.
class BottomUpSearch : public SubspaceSearch {
 public:
  explicit BottomUpSearch(int num_dims) : num_dims_(num_dims) {}

  std::string_view name() const override { return "bottom-up"; }

 protected:
  Result<SearchOutcome> RunImpl(OdEvaluator* od, double threshold,
                                const SearchExecution& exec) const override;

 private:
  int num_dims_;
};

/// Static levelwise search from the full space downward, with both pruning
/// strategies active.
class TopDownSearch : public SubspaceSearch {
 public:
  explicit TopDownSearch(int num_dims) : num_dims_(num_dims) {}

  std::string_view name() const override { return "top-down"; }

 protected:
  Result<SearchOutcome> RunImpl(OdEvaluator* od, double threshold,
                                const SearchExecution& exec) const override;

 private:
  int num_dims_;
};

}  // namespace hos::search

#endif  // HOS_SEARCH_SUBSPACE_SEARCH_H_
