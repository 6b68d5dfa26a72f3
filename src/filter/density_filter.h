// DensityBoundFilter: cheap lower/upper bounds on OD(p, s) from a
// DensitySummary, used by the lattice search as a *pre-admission stage* —
// subspaces whose bounds already prove OD >= T (clear outlier) or OD < T
// (clear inlier) are decided without any exact kNN call, and only
// near-threshold subspaces fall through to the exact kernel path.
//
// Bound construction (per subspace mask s, query point p, neighbour count
// k, L1/L2/LInf metric):
//
//  * Per-candidate cell bounds. For every covered candidate row c, the
//    summary's cells give, per dimension of s, the interval the coordinate
//    lies in; `gap` (distance from p to the interval) and `reach` (distance
//    to its far corner) accumulate across s's dimensions exactly as in a
//    VA-file's approximation phase, yielding
//    lower(c) <= dist(p, c) <= reach(c).
//  * Order-statistic argument. If l(1) <= l(2) <= ... are the sorted
//    per-candidate lower bounds and e(1) <= e(2) <= ... the sorted exact
//    distances, then e(j) >= l(j) for every j (the j candidates with the
//    smallest exact distances each dominate their own lower bound, so at
//    least j lower-bound values sit at or below e(j)). Hence
//    OD = sum of the k smallest exact distances >= sum of the k smallest
//    lower bounds — and symmetrically <= the sum of the k smallest upper
//    bounds. The two k-sums are the refined bounds.
//  * Coarse tier. When the summary covers the whole dataset, a first O(|s|
//    * cells) pass combines, per dimension, the min gap / max reach over
//    *occupied* cells (the live-count histogram, with the query row's own
//    cells discounted): every candidate's distance then lies in
//    [L_min, U_max], so OD is bounded by min(k, candidates) * L_min and
//    min(k, candidates) * U_max without touching per-row data at all. The
//    coarse pass decides the clear-cut subspaces — typically the strongly
//    outlying ones, where p's cells are isolated — in near-constant time.
//
// Streaming deltas and tombstones. When the miner keeps the summary's
// incremental tallies applied (DensitySummary::ApplyAppend / ApplyDelete /
// ResyncTombstones — the default commit-path hooks), the summary stays
// synced() across the whole streaming lifecycle: appended in-grid rows are
// counted, tombstoned rows' counts are retired, so both tiers keep their
// full power — bounds *tighten* as the window slides. Appended rows that
// fall outside the frozen grid stay uncounted: the refined pass folds them
// by exact distance, and the coarse tier drops its lower bound to 0 (an
// unknown candidate could sit arbitrarily close) while keeping its upper
// bound (a k-smallest sum over a candidate subset still caps the true
// one). Without the hooks (a consumer mutating the dataset directly) the
// filter falls back to the rebuild-era semantics: appended rows are folded
// exactly by the refined pass, the coarse tier switches off once a delta
// exists, and stale tombstone counts only loosen the coarse bounds. The
// candidate count always comes from the dataset's current live state.
//
// Floating-point slack. Returned bounds are widened by a relative 1e-9
// (kBoundSlack): the bound arithmetic and the exact kernel path round
// differently at ulp scale, and a conservative decision must survive that.
// Any subspace whose true OD sits within slack of a bound simply falls
// through to the exact path — conservative mode trades a few extra exact
// evaluations for bitwise-identical answers.
//
// FilterMode is the knob threaded through SearchExecution / QueryOptions /
// QueryServiceConfig:
//  * kOff           — filter never consulted; the pre-PR behaviour.
//  * kConservative  — only provably-safe decisions; answers (OD values,
//                     answer sets, lattice evolution) are bitwise identical
//                     to kOff, with bound_decisions exact evaluations
//                     avoided. Held by tests/filter/.
//  * kSpeculative   — near-threshold subspaces whose bound interval is
//                     tight (width <= speculative_slack * T) are decided by
//                     the interval midpoint. May mis-decide; every such
//                     risky decision is counted and the widest risky
//                     interval is reported as SearchCounters::bound_gap, so
//                     bound_gap == 0 guarantees the answer is bitwise
//                     identical to kOff.

#ifndef HOS_FILTER_DENSITY_FILTER_H_
#define HOS_FILTER_DENSITY_FILTER_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>

#include "src/data/dataset.h"
#include "src/filter/density_summary.h"
#include "src/knn/metric.h"

namespace hos::filter {

/// How the density-bound pre-filter participates in a search.
enum class FilterMode : uint8_t {
  kOff,           ///< never consulted
  kConservative,  ///< provably-safe decisions only (answers unchanged)
  kSpeculative,   ///< tight near-threshold intervals decided by midpoint
};

/// Interval proven to contain OD(p, s).
struct OdBounds {
  double lower = 0.0;
  double upper = 0.0;
};

/// One pre-admission verdict for a (point, subspace) pair.
struct FilterDecision {
  enum class Verdict : uint8_t {
    kUndecided,  ///< bounds straddle T — take the exact kNN path
    kOutlier,    ///< OD >= T proven (or speculated)
    kInlier,     ///< OD < T proven (or speculated)
  };
  /// Which bound tier produced `bounds` (and so the verdict, if any).
  /// Feeds the learned per-level gate: a refined-tier outcome is one
  /// observation of whether the expensive per-candidate pass was worth
  /// running at that level.
  enum class Tier : uint8_t {
    kNone,     ///< no tier applied (coarse unavailable, refined skipped)
    kCoarse,   ///< histogram-only bounds
    kRefined,  ///< per-candidate bounds
  };
  Verdict verdict = Verdict::kUndecided;
  Tier tier = Tier::kNone;
  /// The (slack-widened) bounds the verdict rests on.
  OdBounds bounds;
  /// True when the verdict is a speculative midpoint call, not a proof.
  bool risky = false;

  bool decided() const { return verdict != Verdict::kUndecided; }
  /// Interval width — the reported gap of a risky decision.
  double gap() const { return bounds.upper - bounds.lower; }

  /// Signed distance from the threshold to the bound interval: positive
  /// for decided masks (how far the whole interval clears T — the
  /// confidence of the shortcut), negative for undecided ones (how deep T
  /// sits inside the interval). The frontier-ordering priority: widest
  /// margin first. Meaningless when tier == kNone.
  double Margin(double threshold) const {
    if (bounds.lower >= threshold) return bounds.lower - threshold;
    if (bounds.upper < threshold) return threshold - bounds.upper;
    return -std::min(threshold - bounds.lower, bounds.upper - threshold);
  }
};

/// Bound computer over one dataset + summary. All query-side methods are
/// const and touch only state that is immutable between mutations of the
/// (externally serialized) dataset, so concurrent queries may share one
/// filter — the same contract as the kNN engines. The Absorb*/Resync
/// mutators maintain the summary's incremental tallies and must be
/// serialized exactly like the dataset mutations they mirror (the miner
/// calls them from its commit path, which the serving layer already runs
/// under its writer lock).
class DensityBoundFilter {
 public:
  /// Relative widening applied to every returned bound.
  static constexpr double kBoundSlack = 1e-9;

  /// `dataset` must outlive the filter and `summary` must have been built
  /// over a prefix of its rows.
  DensityBoundFilter(const data::Dataset& dataset, knn::MetricKind metric,
                     DensitySummary summary)
      : dataset_(&dataset), metric_(metric), summary_(std::move(summary)) {}

  /// The coarse histogram-tier bounds, or nullopt when they do not apply
  /// (rows appended since the summary was built, or no candidates).
  /// O(|subspace| * cells_per_dim).
  std::optional<OdBounds> CoarseBounds(
      std::span<const double> point, uint64_t mask, int k,
      std::optional<data::PointId> exclude) const;

  /// The refined per-candidate bounds (delta rows folded in exactly).
  /// O(live rows * |subspace|).
  OdBounds RefinedBounds(std::span<const double> point, uint64_t mask, int k,
                         std::optional<data::PointId> exclude) const;

  /// The tightest bounds the filter can offer: the refined interval,
  /// intersected with the coarse one when that applies. What the
  /// bound-soundness fuzz suite asserts `lower <= OD <= upper` on.
  OdBounds Bounds(std::span<const double> point, uint64_t mask, int k,
                  std::optional<data::PointId> exclude) const;

  /// The pre-admission verdict for threshold T, trying the coarse tier
  /// first and computing refined bounds only when it is inconclusive.
  /// `mode` must not be kOff. `speculative_slack` is the maximum interval
  /// width, as a fraction of T, a speculative midpoint call may act on.
  /// `allow_refined == false` stops after the coarse tier (the learned
  /// per-level gate's skip): an undecided result then simply takes the
  /// exact path, so conservative-mode answers are unchanged — only the
  /// work distribution shifts.
  FilterDecision Decide(std::span<const double> point, uint64_t mask, int k,
                        std::optional<data::PointId> exclude, double threshold,
                        FilterMode mode, double speculative_slack,
                        bool allow_refined = true) const;

  /// Folds rows appended since the summary last applied into its tallies.
  /// Mutator — serialize like a dataset mutation.
  void AbsorbAppends() { summary_.ApplyAppend(*dataset_); }

  /// Retires the given (already tombstoned) rows' tally counts.
  void AbsorbDeletes(std::span<const data::PointId> ids) {
    summary_.ApplyDelete(*dataset_, ids);
  }

  /// Retires counts of every counted row no longer live — the catch-up for
  /// eviction paths that report only how many rows died, not which.
  void ResyncTombstones() { summary_.ResyncTombstones(*dataset_); }

  const DensitySummary& summary() const { return summary_; }
  const data::Dataset& dataset() const { return *dataset_; }
  knn::MetricKind metric() const { return metric_; }

 private:
  /// Candidates an OD query against the current dataset actually has.
  size_t EligibleCandidates(std::optional<data::PointId> exclude) const;

  const data::Dataset* dataset_;
  knn::MetricKind metric_;
  DensitySummary summary_;
};

}  // namespace hos::filter

#endif  // HOS_FILTER_DENSITY_FILTER_H_
