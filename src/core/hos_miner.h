// HosMiner: the system facade wiring together the four modules of the
// paper's Figure 2 — X-tree indexing, sampling-based learning, dynamic
// subspace search, and the result-refinement filter.
//
// Typical use:
//
//   hos::core::HosMinerConfig config;
//   config.k = 5;
//   auto miner = hos::core::HosMiner::Build(std::move(dataset), config);
//   auto result = miner->Query(point_id);
//   for (const hos::Subspace& s : result->outlying_subspaces()) { ... }

#ifndef HOS_CORE_HOS_MINER_H_
#define HOS_CORE_HOS_MINER_H_

#include <memory>
#include <span>
#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/data/normalizer.h"
#include "src/filter/density_filter.h"
#include "src/filter/filter_gate.h"
#include "src/index/xtree.h"
#include "src/knn/knn_engine.h"
#include "src/knn/linear_scan.h"
#include "src/learning/learner.h"
#include "src/obs/trace.h"
#include "src/search/od_evaluator.h"
#include "src/search/search_execution.h"
#include "src/search/search_result.h"

namespace hos::core {

/// How the one kNN engine (knn::LeafTableKnn) tiles the rows into leaves.
/// Both are exact; they differ only in cost.
enum class IndexKind {
  kXTree,       ///< STR-packed leaves: the paper's indexing module
  kLinearScan,  ///< one leaf over every row; O(n) per query
};

struct HosMinerConfig {
  /// k of the OD measure (paper §2).
  int k = 5;
  /// Outlier threshold T. <= 0 requests automatic estimation via
  /// EstimateThreshold with `threshold_percentile`.
  double threshold = 0.0;
  double threshold_percentile = 0.95;
  knn::MetricKind metric = knn::MetricKind::kL2;
  /// Applied to the dataset at Build; query points given in raw coordinates
  /// are transformed with the same fitted parameters.
  data::NormalizationKind normalization = data::NormalizationKind::kMinMax;
  IndexKind index = IndexKind::kXTree;
  /// Resolution of the density pre-filter's grid: 2^bits equi-width cells
  /// per dimension (clamped to 1..8; see filter::DensitySummary::Build).
  int filter_bits_per_dim = 4;
  /// Sample size S of the learning process; 0 disables learning and uses
  /// flat priors. Ignored (treated as 0) when the dataset is wider than
  /// lattice::kDenseMaxDims: each sample would cost a full sparse lattice
  /// search, so high-d learning is opt-in via learning::LearnPruningPriors.
  int sample_size = 20;
  /// Seed for sampling and threshold estimation.
  uint64_t seed = 42;
  /// Keep the density filter's tallies synced through the streaming
  /// mutators (DensitySummary::ApplyAppend / ApplyDelete /
  /// ResyncTombstones on every commit), so the coarse bound tier stays
  /// alive — and both tiers *tighten* — as the window slides, instead of
  /// degrading until the next rebuild. Off emulates the original
  /// rebuild-only filter lifecycle (the bench A/B baseline). Answers are
  /// identical either way; only bound tightness (and so which tier decides
  /// what) changes.
  bool incremental_filter_tallies = true;
};

/// Per-query knobs. All except `filter_mode` never change answers, only how
/// they are computed; filter_mode == kSpeculative is the one opt-in that may
/// trade accuracy for speed (and reports when it did — see
/// SearchCounters::bound_gap).
struct QueryOptions {
  /// Density-bound OD pre-filter participation (see
  /// filter::DensityBoundFilter). kOff never consults the filter;
  /// kConservative takes only provably-safe shortcuts, keeping answers
  /// bitwise identical to kOff; kSpeculative may additionally decide
  /// near-threshold subspaces by bound midpoint, reporting every such
  /// decision in the result's counters (risky_decisions / bound_gap —
  /// bound_gap == 0 certifies the answer matched kOff).
  filter::FilterMode filter_mode = filter::FilterMode::kOff;
  /// kSpeculative only: maximum bound-interval width, as a fraction of the
  /// threshold, a midpoint decision may act on.
  double filter_speculative_slack = 0.25;
  /// Frontier dispatch order (see search::FrontierOrdering): kBoundMargin
  /// sorts each level's exact-path masks widest-bound-margin first.
  /// Execution order only — answers are identical at either setting.
  search::FrontierOrdering frontier_ordering =
      search::FrontierOrdering::kNone;
  /// Consult the miner's learned per-level gate (filter::FilterGate) to
  /// skip the filter's refined tier at levels where it has historically
  /// decided ~nothing. Conservative answers are unchanged; skipped passes
  /// are reported in SearchCounters::gate_skips. No-op when filter_mode is
  /// kOff. Queries with this set also train the gate.
  bool filter_gate = false;
  /// Sink for the signed bound margin of every filter consult; null ⇒ off
  /// (the serving layer points this at its hos_filter_margin histogram).
  obs::Histogram* margin_histogram = nullptr;
  /// Optional cross-query OD memo (the service layer's shared cache).
  /// Memoised values are bit-identical to fresh evaluations, so results
  /// with and without a store are the same.
  search::SharedOdStore* od_store = nullptr;
  /// Borrowed pool for intra-query parallel frontier evaluation, for
  /// single queries and fused blocks alike; null runs the lattice search
  /// sequentially on the calling thread. Must not be the pool the query
  /// itself executes on — frontier rounds block on their chunk futures, so
  /// a pool waiting on itself deadlocks once every worker is blocked
  /// (service::QueryService keeps a dedicated search pool for this reason).
  service::ThreadPool* search_pool = nullptr;
  /// Pool tasks per frontier round; 0 uses the pool's full width, <= 1
  /// with a pool still evaluates sequentially. Ignored without
  /// search_pool. Answers are identical at any setting.
  int search_threads = 0;
  /// Lattice storage backend for this query's search. kAuto picks the
  /// hash-map sparse store at every d (the only backend for d in
  /// 23..kMaxLatticeDims); kDense forces the flat array. Both produce
  /// bit-identical answers. Forcing kDense past its cap makes the query
  /// return InvalidArgument.
  lattice::LatticeBackend lattice_backend = lattice::LatticeBackend::kAuto;
  /// Work budget: maximum fresh OD evaluations one query may spend; 0 is
  /// unlimited. A query whose next lattice level would exceed it returns
  /// ResourceExhausted instead of running for hours — the guard for
  /// exhaustive / non-band searches at d > 22
  /// (SearchExecution::max_od_evaluations).
  uint64_t max_od_evaluations = 0;
  /// When true (and no external `tracer` is given), the query collects a
  /// span tree — search → dynamic → wave → knn — and attaches it to
  /// QueryResult::trace. Tracing observes, never steers: answers are
  /// bitwise identical with it on or off (held by
  /// tests/obs/trace_differential_test.cc).
  bool collect_trace = false;
  /// External span sink. When set, spans are recorded here under
  /// `trace_parent` and the caller owns finishing the trace (the serving
  /// layer does this so its "service" root span encloses the search);
  /// QueryResult::trace stays null.
  obs::QueryTracer* tracer = nullptr;
  /// Span id this query's "search" span attaches under in an external
  /// tracer (-1 = root). Ignored without `tracer`.
  int trace_parent = -1;
};

/// Answer for one query point.
struct QueryResult {
  search::SearchOutcome outcome;

  /// Dataset version (data::Dataset::version) the query was answered at.
  /// In the serving layer every result's version corresponds to a dataset
  /// state that actually existed: appends are serialized against queries,
  /// so a query sees either all of an append batch or none of it.
  uint64_t dataset_version = 0;

  /// Span tree of this query's execution; null unless
  /// QueryOptions::collect_trace asked for one (shared_ptr so copying
  /// results stays cheap and the common untraced path pays nothing).
  std::shared_ptr<const obs::QueryTrace> trace;

  /// The refined answer set (paper §3.4): minimal outlying subspaces.
  const std::vector<Subspace>& outlying_subspaces() const {
    return outcome.minimal_outlying_subspaces;
  }
  bool is_outlier_anywhere() const { return outcome.IsOutlierAnywhere(); }
};

class HosMiner {
 public:
  /// Builds the whole system: normalises `dataset`, constructs the index,
  /// estimates T when requested, and runs the learning process.
  /// InvalidArgument (naming the row and dimension) when a live row holds
  /// NaN or ±Inf, raw or after normalization; QueryPoint and PrepareAppend
  /// apply the same check to their rows. FailedPrecondition when an
  /// estimated T is not positive (e.g. all rows identical).
  static Result<HosMiner> Build(data::Dataset dataset,
                                HosMinerConfig config = {});

  HosMiner(HosMiner&&) noexcept = default;
  HosMiner& operator=(HosMiner&&) noexcept = default;

  /// Finds the outlying subspaces of dataset row `id` (the row itself is
  /// excluded from its neighbour sets): QueryBatchFused over the one id, so
  /// it answers and fails exactly as that id's slot would. A tombstoned
  /// (deleted/evicted) id returns NotFound; an id that never existed
  /// returns OutOfRange. Build requires k < live rows, but Delete / Evict*
  /// may shrink the window below that: with fewer than k live rows besides
  /// `id`, no OD exists and the query returns FailedPrecondition naming k
  /// and the live count.
  ///
  /// Thread safety: as long as nothing mutates the miner, Query,
  /// QueryPoint, QueryAll, ScreenOutliers and TopOutliers may be called
  /// concurrently from any number of threads (the engines' work counters
  /// are relaxed atomics; all per-query state is local to the call). The
  /// streaming-ingest mutators (Append, CommitRebuild, Rebuild,
  /// RefreshLearning) must be serialized against the query path — see the
  /// streaming section below.
  Result<QueryResult> Query(data::PointId id) const {
    return Query(id, QueryOptions{});
  }
  Result<QueryResult> Query(data::PointId id,
                            const QueryOptions& options) const;

  /// Finds the outlying subspaces of an external point given in *raw*
  /// (pre-normalisation) coordinates. FailedPrecondition when fewer than k
  /// rows are live.
  Result<QueryResult> QueryPoint(std::vector<double> raw_point) const;

  /// Batch form of Query.
  Result<std::vector<QueryResult>> QueryAll(
      const std::vector<data::PointId>& ids) const;

  /// A dataset point with its full-space OD.
  struct ScreenedOutlier {
    data::PointId id;
    double full_space_od;
  };

  /// Screens the whole dataset: by OD monotonicity (paper §2) a point has
  /// at least one outlying subspace iff its full-space OD >= T, so one kNN
  /// query per point decides who is worth a lattice search at all.
  /// Returns the qualifying points, descending by full-space OD. Returns
  /// no points while k or fewer rows are live (no point has k neighbours;
  /// Query reports that state as FailedPrecondition); so do TopOutliers
  /// and TopOutliersWithSubspaces.
  std::vector<ScreenedOutlier> ScreenOutliers() const;

  /// The top-n points by full-space OD (Ramaswamy-style ranking with the
  /// OD measure), regardless of the threshold.
  std::vector<ScreenedOutlier> TopOutliers(int top_n) const;

  /// A top-n point with its full lattice answer.
  struct TopOutlierQuery {
    data::PointId id;
    double full_space_od;
    Result<QueryResult> result;
  };

  /// TopOutliers, then a full lattice walk per returned point — with each
  /// walk *seeded* from the screening pass: the point's full-space OD
  /// (already computed by ScreenBatch) is deposited into the
  /// walk's memo up front, so the full-space subspace never costs a second
  /// kNN query. Answer content is bitwise identical to Query(id, options)
  /// per point; the only counter difference is that a walk which consumes
  /// the seed reports the full-space mask like a shared-store hit instead
  /// of a fresh evaluation (od_evaluations one lower).
  std::vector<TopOutlierQuery> TopOutliersWithSubspaces(
      int top_n, const QueryOptions& options = {}) const;

  /// Full-space OD of the given rows (each must be live, and is excluded
  /// from its own neighbours), in input order: one knn::OutlyingDegree
  /// call per id. ScreenOutliers and TopOutliers rank by these values.
  std::vector<double> ScreenBatch(std::span<const data::PointId> ids) const;

  /// Every dataset-row query runs here, a single Query as a block of one.
  /// Each id is checked on its own (OutOfRange, NotFound, then the
  /// window's FailedPrecondition, reported in that id's slot), then the
  /// valid points' lattice searches are co-scheduled through
  /// search::BatchFrontierRunner so OD evaluations coinciding on a subspace
  /// share one batched kNN call. Per-point answer content is bitwise
  /// identical to querying each id alone — see batch_frontier.h for the
  /// argument and the monitoring-only counter exceptions. With
  /// collect_trace set (and no external tracer) the whole block records
  /// one shared span tree, attached to every successful result.
  std::vector<Result<QueryResult>> QueryBatchFused(
      std::span<const data::PointId> ids, const QueryOptions& options) const;

  // -------------------------------------------------------------------
  // Streaming ingest and the sliding window. Append adds rows (the delta)
  // which every query merges in exactly — the kNN backends scan the delta
  // alongside their index/kernel base; Delete / EvictBefore / EvictOldest
  // tombstone rows, which every query filters out exactly. So answers at
  // version v are bit-identical to a miner freshly built on the surviving
  // rows (given the same threshold and priors). A rebuild folds the delta
  // and the tombstones into the index and SoA snapshot physically; it
  // never re-fits the normalizer or re-estimates the threshold (that
  // would change the meaning of previously returned results).
  //
  // Thread safety: Append / Delete / Evict* / CommitRebuild / Rebuild /
  // CommitLearning / RefreshLearning mutate the miner and must be
  // externally serialized against the const query path; PrepareRebuild
  // and PrepareLearning only read, so they may run concurrently with
  // queries (but not with mutations). service::QueryService implements
  // exactly this discipline with its ingest lock.
  // -------------------------------------------------------------------

  /// Appends rows given in *raw* (pre-normalisation) coordinates; they are
  /// transformed with the Build-time fitted normalizer. Returns the new
  /// dataset version. Marks the learned pruning priors stale (answers are
  /// unaffected — priors only steer search order — so refreshing is lazy:
  /// call RefreshLearning when delta-heavy query plans degrade).
  /// Equivalent to PrepareAppend + CommitAppend.
  Result<uint64_t> Append(const std::vector<std::vector<double>>& raw_rows);

  /// Validation + normalization half of Append: read-only (safe to run
  /// concurrently with queries), so a serving layer can do the per-row
  /// work outside its writer lock and keep the exclusive section down to
  /// CommitAppend's row-copy mutation.
  Result<std::vector<std::vector<double>>> PrepareAppend(
      const std::vector<std::vector<double>>& raw_rows) const;

  /// Commits rows produced by PrepareAppend; returns the new version.
  uint64_t CommitAppend(std::vector<std::vector<double>> normalized_rows);

  /// Tombstones the given rows, all-or-nothing (see
  /// data::Dataset::DeleteRows for the error contract). Ids stay stable;
  /// every query from the returned version on filters the dead rows
  /// exactly, so answers are bit-identical to a fresh build on the
  /// survivors. Marks the pruning priors stale (the learned sample may
  /// reference dead rows; answers are unaffected either way).
  Result<uint64_t> Delete(std::span<const data::PointId> ids);

  /// TTL eviction: tombstones every live row appended before dataset
  /// version `version`. Returns the number evicted.
  size_t EvictBefore(uint64_t version);

  /// Row-count sliding window: tombstones the `n` oldest live rows.
  /// Returns the number evicted.
  size_t EvictOldest(size_t n);

  /// Monotonic dataset version; every appended or tombstoned row bumps it.
  uint64_t version() const { return dataset_->version(); }

  /// Rows appended since Build / the last committed rebuild.
  size_t delta_rows() const { return dataset_->delta_size(); }

  /// delta_rows() / dataset size — the append half of the rebuild signal.
  double delta_fraction() const { return dataset_->delta_fraction(); }

  /// (delta rows + unsealed tombstones) / live rows — the per-query extra
  /// work the sealed structures cannot serve; the rebuild-policy signal.
  double churn_fraction() const { return dataset_->churn_fraction(); }

  /// Rows the queries can still return.
  size_t live_rows() const { return dataset_->live_size(); }

  /// True when rows were appended or deleted since the pruning priors were
  /// learned — including after a commit whose prepare raced a mutation.
  bool learning_stale() const { return priors_version_ != version(); }

  /// Drift signal: rows changed (appended + tombstoned) since the priors
  /// were learned, as a fraction of the live rows. 0 right after learning;
  /// 1.0 means the window has turned over entirely since then. Monotone in
  /// version(), so a threshold on it fires exactly once per drift episode
  /// when relearning resets it.
  double learning_staleness() const {
    const size_t live = dataset_->live_size();
    return static_cast<double>(dataset_->version() - priors_version_) /
           static_cast<double>(std::max<size_t>(live, 1));
  }

  /// Dataset version the current pruning priors were learned at.
  uint64_t priors_version() const { return priors_version_; }

  /// Everything a learning refresh produces, computed by PrepareLearning
  /// without touching the served state; swapped in by CommitLearning in
  /// O(1). Priors only steer search order, so answers are identical before
  /// and after the commit — which is why the serving layer may run the
  /// prepare concurrently with queries.
  struct LearningArtifacts {
    learning::LearningReport report;
    /// Dataset version the priors were learned at.
    uint64_t version = 0;
  };

  /// Re-runs the sampling-based learning process on the current live rows
  /// (same skip rule as Build past the dense-lattice cap; fresh
  /// Rng(config.seed)). Heavy; read-only.
  LearningArtifacts PrepareLearning() const;

  /// Installs prepared priors and resets the staleness clock to the
  /// version they were learned at, so mutations committed since the
  /// prepare still count as drift. Cheap.
  void CommitLearning(LearningArtifacts artifacts);

  /// PrepareLearning + CommitLearning in one call. Purely a query-plan
  /// refresh: answers never change.
  void RefreshLearning();

  /// Everything a rebuild constructs, produced by PrepareRebuild without
  /// touching the served state so queries can continue meanwhile; swapped
  /// in by CommitRebuild in O(1).
  struct RebuildArtifacts {
    std::unique_ptr<knn::KnnEngine> engine;
    /// Density-bound pre-filter over the same rows.
    std::unique_ptr<filter::DensityBoundFilter> filter;
    /// Rows and version the artifacts cover (rows appended after
    /// PrepareRebuild simply stay in the delta after the commit).
    size_t rows = 0;
    uint64_t version = 0;
    /// Dead rows among the first `rows` ids that the artifacts folded out
    /// physically (rows tombstoned after the prepare stay unsealed and are
    /// filtered at query time until the next rebuild).
    uint64_t folded_tombstones = 0;
  };

  /// Builds a fresh SoA snapshot and index over all current rows. Heavy
  /// (O(n·d) plus the index bulk load); read-only.
  Result<RebuildArtifacts> PrepareRebuild() const;

  /// Installs prepared artifacts and re-seals the dataset base. Cheap —
  /// this is the only step a serving layer must block writers and readers
  /// for.
  void CommitRebuild(RebuildArtifacts artifacts);

  /// PrepareRebuild + CommitRebuild in one call.
  Status Rebuild();

  double threshold() const { return threshold_; }
  int num_dims() const { return dataset_->num_dims(); }
  const HosMinerConfig& config() const { return config_; }
  /// The normalised dataset the system operates on.
  const data::Dataset& dataset() const { return *dataset_; }
  const knn::KnnEngine& engine() const { return *engine_; }
  const learning::LearningReport& learning_report() const {
    return learning_report_;
  }
  const lattice::PruningPriors& priors() const {
    return learning_report_.priors;
  }
  /// The engine as the X-tree; non-null when config().index == kXTree.
  const index::XTree* xtree() const {
    return dynamic_cast<const index::XTree*>(engine_.get());
  }
  /// The density-bound pre-filter over the current base (always built; it
  /// only acts when a query opts in via QueryOptions::filter_mode).
  const filter::DensityBoundFilter* density_filter() const {
    return density_filter_.get();
  }
  /// The learned per-level refined-tier gate (always allocated; it only
  /// acts — and learns — when a query opts in via
  /// QueryOptions::filter_gate). Owned here, not by the rebuild artifacts,
  /// so learned rates survive index rebuilds.
  filter::FilterGate* filter_gate() const { return filter_gate_.get(); }

 private:
  HosMiner(HosMinerConfig config, std::unique_ptr<data::Dataset> dataset,
           data::Normalizer normalizer);

  /// OK when at least k live rows remain besides the query's own
  /// (`query_is_row`: the query is itself a live row); FailedPrecondition,
  /// naming k and the live count, otherwise.
  Status CheckWindowHoldsK(bool query_is_row) const;

  /// The one read path, reached by Query, QueryBatchFused, QueryPoint and
  /// TopOutliersWithSubspaces: runs the TSF-ordered
  /// search::BatchFrontierRunner over priors() on `ods` under a "search"
  /// span, with the SearchExecution `options` describe, and returns one
  /// result per evaluator, in `ods` order, stamped with the dataset version
  /// and, when options asked for a local trace, the block's span tree.
  std::vector<Result<QueryResult>> RunBlock(
      std::span<search::OdEvaluator> ods, const QueryOptions& options) const;

  /// The one learning step shared by Build and PrepareLearning: runs the
  /// sampling-based learner (skipped — flat priors — past the dense
  /// lattice cap, where each sample would cost a full sparse search) over
  /// the live rows with the given rng.
  LearningArtifacts LearnPriors(Rng* rng) const;

  HosMinerConfig config_;
  std::unique_ptr<data::Dataset> dataset_;  // normalised copy
  data::Normalizer normalizer_;
  std::unique_ptr<knn::KnnEngine> engine_;
  std::unique_ptr<filter::DensityBoundFilter> density_filter_;
  std::unique_ptr<filter::FilterGate> filter_gate_;
  double threshold_ = 0.0;
  learning::LearningReport learning_report_;
  /// Dataset version the installed priors were learned at (feeds
  /// learning_staleness()).
  uint64_t priors_version_ = 0;
};

}  // namespace hos::core

#endif  // HOS_CORE_HOS_MINER_H_
