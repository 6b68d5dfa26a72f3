// SearchOutcome: everything a lattice search produces for one query point —
// the outlying-subspace answer set (in compressed minimal-seed form),
// per-level outlier fractions (consumed by the learning module), and the
// work counters the efficiency experiments report.

#ifndef HOS_SEARCH_SEARCH_RESULT_H_
#define HOS_SEARCH_SEARCH_RESULT_H_

#include <cstdint>
#include <vector>

#include "src/common/subspace.h"

namespace hos::search {

/// Work performed by one search.
struct SearchCounters {
  /// Subspaces whose OD was actually computed.
  uint64_t od_evaluations = 0;
  /// Subspaces decided by upward pruning (inferred outliers).
  uint64_t pruned_upward = 0;
  /// Subspaces decided by downward pruning (inferred non-outliers).
  uint64_t pruned_downward = 0;
  /// Point-to-point distance computations inside the kNN engine. Measured
  /// as a before/after delta of the engine's process-wide counter, so it is
  /// exact only when the engine serves one query at a time; concurrent
  /// queries (the serving layer's QueryService) bleed into each other's
  /// deltas, and so do the points of one fused block
  /// (search::BatchFrontierRunner).
  uint64_t distance_computations = 0;
  /// Subspaces decided by the density-bound pre-filter without any kNN
  /// call (SearchExecution::filter_mode != kOff). These are "evaluated" as
  /// far as the lattice is concerned — the closure identity becomes
  /// od_evaluations + pruned_upward + pruned_downward + bound_decisions
  /// == 2^d - 1 — and in conservative mode the verdicts are provably the
  /// ones the exact path would have produced.
  uint64_t bound_decisions = 0;
  /// Bound decisions taken speculatively (bounds straddled the threshold
  /// but the interval was tight; kSpeculative only). Each may be wrong.
  uint64_t risky_decisions = 0;
  /// Widest bound interval a risky decision acted on; 0 when
  /// risky_decisions == 0. bound_gap == 0 therefore certifies the answer
  /// is identical to a FilterMode::kOff run.
  double bound_gap = 0.0;
  /// Refined-tier filter passes the learned per-level gate skipped
  /// (SearchExecution::filter_gate). Each skip sends the mask straight to
  /// the exact path, so conservative answers are unchanged — the counter
  /// only records work the gate saved.
  uint64_t gate_skips = 0;
  /// Wall-clock seconds.
  double elapsed_seconds = 0.0;
  /// Search steps (level batches for the dynamic search).
  uint64_t steps = 0;
};

/// Result of a complete lattice search for one query point.
struct SearchOutcome {
  int num_dims = 0;
  double threshold = 0.0;

  /// Minimal outlying subspaces: the refinement filter's answer (paper
  /// §3.4). The full outlying set is exactly their up-closure.
  std::vector<Subspace> minimal_outlying_subspaces;

  /// Subspaces explicitly evaluated with OD >= T, in evaluation order.
  std::vector<Subspace> evaluated_outliers;

  /// outlier_fraction[m] = (#outlying m-dim subspaces) / C(d, m), for
  /// m in 1..d (index 0 unused). This is p_up(m, sp) of §3.2.
  std::vector<double> outlier_fraction;

  SearchCounters counters;

  /// True iff `s` is an outlying subspace (superset of a minimal one).
  bool IsOutlying(const Subspace& s) const {
    for (const Subspace& seed : minimal_outlying_subspaces) {
      if (seed.IsSubsetOf(s)) return true;
    }
    return false;
  }

  /// Total number of outlying subspaces: the size of the minimal outlying
  /// subspaces' up-closure, counted exactly in uint64 by
  /// lattice::UpClosureLevelCounts. (Rebuilding it from outlier_fraction
  /// in double is off by a few at d >= 57, where C(d, m) exceeds 2^53.)
  uint64_t TotalOutlyingCount() const;

  /// The query point is an outlier in at least one subspace.
  bool IsOutlierAnywhere() const {
    return !minimal_outlying_subspaces.empty();
  }
};

}  // namespace hos::search

#endif  // HOS_SEARCH_SEARCH_RESULT_H_
