// SearchExecution: how a lattice search runs — under which work budget,
// with which density pre-filter and trace sink. A search runs on the
// calling thread. None of these knobs changes an answer (the filter's
// opt-in kSpeculative mode excepted, which reports every risky decision).

#ifndef HOS_SEARCH_SEARCH_EXECUTION_H_
#define HOS_SEARCH_SEARCH_EXECUTION_H_

#include <cstdint>

#include "src/filter/density_filter.h"
#include "src/obs/trace.h"

namespace hos::obs {
class Histogram;
}  // namespace hos::obs

namespace hos::filter {
class FilterGate;
}  // namespace hos::filter

namespace hos::search {

/// How a frontier runner orders the undecided masks of a level wave.
enum class FrontierOrdering : uint8_t {
  /// Canonical mask order — the pre-scheduling behaviour.
  kNone,
  /// Exact-path masks sorted by descending bound margin (widest straddle
  /// first), so the hardest evaluations run earliest. Lattice merges stay
  /// in canonical mask order, so answers are bitwise identical to kNone in
  /// conservative mode (held by tests/filter/filter_differential_test.cc).
  /// No-op when the filter is off (no bounds ⇒ no margins).
  kBoundMargin,
};

/// How a search strategy executes its frontier rounds, all of them on the
/// calling thread.
struct SearchExecution {
  /// Work budget: the maximum number of fresh OD evaluations (kNN
  /// searches) one Run may spend; 0 means unlimited. Checked before each
  /// level batch — against the batch's undecided count, so an
  /// intractably large level (exhaustive or non-band data at d > 22 can
  /// reach C(d, m) ~ 10^11 subspaces) fails fast with ResourceExhausted
  /// instead of first materialising the wave, let alone evaluating it.
  /// Only fresh evaluations consume budget (memo and SharedOdStore hits do
  /// not), but the pre-batch check conservatively charges a level's whole
  /// undecided count.
  uint64_t max_od_evaluations = 0;

  /// Density-bound pre-filter consulted by the pruning strategies before
  /// dispatching a frontier mask to the exact kNN path; null or kOff ⇒
  /// every mask takes the exact path (the pre-filter-PR behaviour).
  /// ExhaustiveSearch ignores the filter — it is the oracle the
  /// differential suites compare everything against. In kConservative the
  /// filter only acts on proofs, so answers are bitwise identical to kOff
  /// (held by tests/filter/filter_differential_test.cc); kSpeculative may
  /// additionally decide near-threshold masks by bound midpoint, reporting
  /// each such decision in SearchCounters::{risky_decisions, bound_gap}.
  const filter::DensityBoundFilter* filter = nullptr;
  filter::FilterMode filter_mode = filter::FilterMode::kOff;
  /// kSpeculative only: maximum bound-interval width, as a fraction of the
  /// threshold, a midpoint decision may act on.
  double filter_speculative_slack = 0.25;

  /// Priority order for each level's exact-path masks (see FrontierOrdering).
  FrontierOrdering frontier_ordering = FrontierOrdering::kNone;

  /// Learned per-level gate over the filter's refined tier; null ⇒ every
  /// filter consult may run both tiers. Owned by the miner (it survives
  /// index rebuilds so learned rates persist across the stream); skips are
  /// reported in SearchCounters::gate_skips and never change conservative
  /// answers (see filter/filter_gate.h).
  filter::FilterGate* filter_gate = nullptr;

  /// Sink for the signed bound margin of every filter consult (positive =
  /// decided clearance, negative = straddle depth); null ⇒ off. Feeds the
  /// service's hos_filter_margin histogram so operators can see how much
  /// headroom the bounds have before re-tuning grids or thresholds.
  obs::Histogram* margin_histogram = nullptr;

  /// Per-query trace sink; null ⇒ tracing off (the default, and the only
  /// cost disabled tracing pays is this null check). Tracing never changes
  /// answers: spans are observations only (held by the trace differential
  /// test).
  obs::QueryTracer* tracer = nullptr;
  /// Span id the search strategy's spans attach under (-1 = root).
  int trace_parent = -1;
};

}  // namespace hos::search

#endif  // HOS_SEARCH_SEARCH_EXECUTION_H_
