// QueryService: the concurrent serving facade over a HosMiner. Where
// HosMiner answers one query on the caller's thread, the service executes
// batches across a fixed-size worker pool, memoises OD(point, subspace)
// values in a shared sharded LRU cache, and exports serving metrics (QPS
// counters, cache hit rate, p50/p99 latency, ingest/rebuild counters).
//
//   auto miner = hos::core::HosMiner::Build(std::move(dataset), config);
//   hos::service::QueryServiceConfig service_config;
//   service_config.num_threads = 8;
//   hos::service::QueryService service(std::move(miner).value(),
//                                      service_config);
//   auto results = service.QueryBatch(ids);        // parallel, in id order
//   auto future = service.QueryAsync(some_id);     // fire-and-collect
//   auto version = service.AppendBatch(new_rows);  // serve while appending
//   auto stats = service.Stats();                  // snapshot for /varz
//
// Streaming ingest (the versioned-dataset architecture):
//
//  * AppendBatch commits rows atomically under the writer side of an
//    epoch lock (std::shared_mutex): every query runs under the reader
//    side, so it observes either all of a batch or none of it, and each
//    result reports the dataset version it was answered at. Appended rows
//    are served immediately — the kNN engine merges the delta into its
//    kernel results exactly (see src/knn/leaf_table_knn.h).
//  * The OdCache is keyed by dataset version (OdCache::VersionView), so a
//    cached OD computed before an append can never answer a query issued
//    after it.
//  * Two pieces of derived state go stale as the window moves: the kNN
//    index (churn_fraction over IngestConfig::rebuild_delta_fraction) and
//    the learned pruning priors (learning_staleness over
//    relearn_staleness_threshold). AppendBatch, DeleteRows and EvictBefore
//    each schedule one maintenance task when either policy wants work. It
//    runs on a dedicated single-thread worker, single-flight: it rebuilds
//    first, then relearns, and repeats while a policy still wants work.
//    Each refresh runs its heavy phase (HosMiner::PrepareRebuild — new SoA
//    snapshot + index bulk load — or PrepareLearning) under the *reader*
//    side, concurrently with queries, and swaps the result in
//    (CommitRebuild, CommitLearning) under the writer side — a pause of
//    microseconds, reported for rebuilds as ServiceStats
//    last_rebuild_pause_seconds.
//  * The maintenance task runs on its own worker, never the query pool,
//    so a rebuild's long prepare phase never takes a slot from queries.
//    Each query and fused block runs its whole search on the query worker
//    that picked it up.
//
// The miner snapshot's kNN engine holds one SoA view of the dataset,
// shared by every worker, so their OD evaluations run through the batched
// distance kernel (src/kernels/) rather than per-point scalar metric
// calls.
//
// Determinism: the *answers* (outlying subspaces, per-level fractions,
// threshold) are identical to running HosMiner::Query serially at the same
// dataset version — per-query state is stack-local, the OD cache stores
// pure-function values keyed by version, and QueryBatch writes each answer
// into its id's slot regardless of completion order. The work counters
// inside SearchCounters are not: they are deltas of the engine's
// process-wide tallies, so under concurrent execution they include other
// in-flight queries' work, and with the cache on they shrink as hits
// replace evaluations. Treat them as monitoring data, not per-query
// measurements, when going through the service.

#ifndef HOS_SERVICE_QUERY_SERVICE_H_
#define HOS_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/hos_miner.h"
#include "src/obs/metrics.h"
#include "src/service/od_cache.h"
#include "src/service/service_stats.h"
#include "src/service/thread_pool.h"

namespace hos::service {

/// Rebuild, sliding-window and relearn policy for the streaming-ingest
/// path. Rebuilds and relearns run as one maintenance task on the
/// service's background worker (see the header comment).
struct IngestConfig {
  /// Rebuild when the churn fraction — (delta rows + unsealed
  /// tombstones) / live rows, the per-query extra work the sealed
  /// structures cannot serve — exceeds this value (and min_delta_rows is
  /// met). <= 0 disables automatic rebuilds entirely (appends and deletes
  /// still serve exactly through the delta scan and tombstone filter,
  /// just with linearly growing per-query churn cost).
  double rebuild_delta_fraction = 0.25;
  /// Never rebuild for churn (delta rows + unsealed tombstones) smaller
  /// than this many rows.
  size_t min_delta_rows = 64;
  /// Row-count sliding window: when > 0, every append batch that pushes
  /// the live row count above this evicts the oldest live rows back down
  /// to it (inside the same writer-lock commit, so no query ever
  /// observes an over-full window). 0 = unbounded.
  size_t window_max_rows = 0;
  /// Drift-triggered relearning: when > 0 and
  /// HosMiner::learning_staleness() — rows appended + deleted since the
  /// priors were learned, over the live rows — reaches this value, the
  /// maintenance task relearns (after any rebuild it runs; prepare under
  /// the reader lock, O(1) commit under the writer lock). Priors only
  /// steer search order, so answers are identical before and after. 0
  /// disables automatic relearning; 1.0 means "relearn when the window
  /// has fully turned over".
  double relearn_staleness_threshold = 0.0;
};

/// Tracing and slow-query logging. Both are off by default; the
/// default-configured service pays only a null-pointer check per query.
/// Operators read counters through Stats(), MetricsJson() and
/// MetricsPrometheus().
struct ObservabilityConfig {
  /// Attach a QueryTrace (service → search → dynamic → wave → knn span
  /// tree; a QueryBatch block's root is "batch") to every QueryResult the
  /// service returns.
  bool trace_queries = false;
  /// When > 0, queries slower than this are counted (ServiceStatsSnapshot
  /// slow_queries) and their full trace is dumped to the log at Warning.
  /// Enabling the threshold implies per-query tracing — a slow query can
  /// only be explained if its spans were recorded while it ran.
  double slow_query_threshold_seconds = 0.0;
};

struct QueryServiceConfig {
  /// Worker threads executing queries.
  int num_threads = 4;
  /// Read by nothing: each query's search runs on the worker that picked
  /// it up. Kept only because e2ebench/main.cc assigns it; it goes when
  /// the benchmark stops naming it.
  int search_threads = 1;
  /// When false, no cross-query OD cache is attached (each query still has
  /// OdEvaluator's per-query memo).
  bool enable_od_cache = true;
  OdCacheConfig cache;
  /// Read by nothing: there is one lattice store. Kept only because
  /// e2ebench/main.cc reads and assigns it; it goes when the benchmark
  /// stops naming it.
  lattice::LatticeBackend lattice_backend = lattice::LatticeBackend::kAuto;
  /// Per-query work budget (fresh OD evaluations); 0 = unlimited. Queries
  /// that would exceed it fail with ResourceExhausted instead of occupying
  /// a worker for hours (QueryOptions::max_od_evaluations).
  uint64_t max_od_evaluations = 0;
  /// Density-bound OD pre-filter for every query this service runs
  /// (QueryOptions::filter_mode): kOff (default) never consults it,
  /// kConservative skips exact kNN work only when provably safe (answers
  /// bitwise identical), kSpeculative may decide near-threshold subspaces
  /// by bound midpoint and reports each such decision via the
  /// filter_risky_decisions counter / last_bound_gap gauge.
  filter::FilterMode filter_mode = filter::FilterMode::kOff;
  /// kSpeculative only: maximum bound-interval width, as a fraction of the
  /// threshold, a midpoint decision may act on.
  double filter_speculative_slack = 0.25;
  /// Frontier dispatch order (QueryOptions::frontier_ordering): kNone keeps
  /// the canonical mask order; kBoundMargin (with the filter on) evaluates
  /// each level's undecided masks widest-filter-margin-first, so near-miss
  /// subspaces hit the engine while its caches are warmest. Answers and
  /// counters are bitwise identical either way — only the execution order
  /// within a level changes.
  search::FrontierOrdering frontier_ordering =
      search::FrontierOrdering::kNone;
  /// Learned per-level gate (QueryOptions::filter_gate): when true (and the
  /// filter is on), levels whose refined tier historically decides almost
  /// nothing skip tier 2 and go straight to exact kNN, trading a wasted
  /// O(rows·|s|) bound pass for the evaluation it would not have avoided.
  /// Conservative-mode answers stay bitwise identical; skips are reported
  /// via the filter_gate_skips counter.
  bool filter_gate = false;
  /// Fused multi-query execution: QueryBatch splits each batch into blocks
  /// of at most this many ids (at least one) and co-schedules every
  /// block's lattice searches (HosMiner::QueryBatchFused →
  /// search::BatchFrontierRunner), so OD evaluations coinciding on a
  /// subspace share one fused engine pass; each block runs under one epoch
  /// reader lock and one sharded OD-cache multi-probe per wave. Answers
  /// are bitwise identical to a Query per id at any setting; <= 1 cuts
  /// blocks of one id, so no two points share a block. The per-query
  /// latency and SearchCounters work stats are measured per *block*
  /// (monitoring data — see the determinism note above).
  int batch_fusion_width = 16;
  /// Streaming-ingest rebuild policy.
  IngestConfig ingest;
  /// Tracing and the slow-query log.
  ObservabilityConfig observability;
};

class QueryService {
 public:
  /// Takes ownership of the miner; all mutation from here on goes through
  /// AppendBatch, DeleteRows and the eviction calls (and the maintenance
  /// they schedule), serialized against the query path by the service's
  /// epoch lock.
  explicit QueryService(core::HosMiner miner, QueryServiceConfig config = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Drains in-flight queries and any scheduled maintenance task.
  ~QueryService() = default;

  /// Executes all ids across the worker pool, one task per block of
  /// max(config.batch_fusion_width, 1) ids (one co-scheduled lattice search
  /// per block). results[i] answers ids[i]; answer content is identical to
  /// calling Query(ids[i]) serially. On any per-query error the first
  /// error in id order is returned instead.
  Result<std::vector<core::QueryResult>> QueryBatch(
      std::span<const data::PointId> ids);

  /// Schedules a single query on the pool.
  std::future<Result<core::QueryResult>> QueryAsync(data::PointId id);

  /// One query executed on the calling thread as a block of one (still
  /// cache-assisted and counted in the stats).
  Result<core::QueryResult> Query(data::PointId id);

  /// Appends rows (raw, pre-normalisation coordinates) while the service
  /// keeps serving: the batch commits atomically, queries issued after the
  /// return see all of it, and maintenance is scheduled when a policy
  /// says so. Returns the dataset version the batch committed at.
  /// Concurrent AppendBatch calls are serialized with each other and with
  /// the query path.
  Result<uint64_t> AppendBatch(const std::vector<std::vector<double>>& rows);

  /// Tombstones the given rows, all-or-nothing, atomically against the
  /// query path (see data::Dataset::DeleteRows for the error contract).
  /// Queries issued after the return filter the dead rows exactly;
  /// querying a deleted id returns NotFound (counted as
  /// evicted_query_rejects). Returns the dataset version the batch
  /// committed at.
  Result<uint64_t> DeleteRows(std::span<const data::PointId> ids);

  /// TTL eviction: tombstones every live row appended before dataset
  /// version `version` (callers map their wall-clock horizon to the
  /// version watermark they recorded then). Returns the number evicted.
  size_t EvictBefore(uint64_t version);

  /// Wall-clock TTL convenience over EvictBefore: tombstones every live
  /// row whose commit the service observed more than `seconds` ago, using
  /// the monotonic time → dataset-version samples it records at
  /// construction and at every append commit — callers no longer need to
  /// keep their own version watermarks. Granularity is the append batch: a
  /// batch is evicted only once its *whole* commit is older than the
  /// horizon, so this never evicts a row younger than `seconds`. Returns
  /// the number evicted. Edge cases: `seconds <= 0` evicts every committed
  /// row; a NaN or infinite `seconds` evicts nothing.
  size_t EvictOlderThan(double seconds);

  /// Blocks until no maintenance task (rebuild or relearn) is scheduled or
  /// running, then returns. Test and shutdown aid; the destructor waits
  /// implicitly.
  void WaitForRebuilds();

  /// Counters plus cache hit rate, latency percentiles and ingest gauges.
  ServiceStatsSnapshot Stats() const;

  /// The unified metrics registry: service counters (push-model handles
  /// held by ServiceStats) plus pull-model callbacks covering the OD cache,
  /// dataset/ingest gauges and the kNN backend's internal work counters —
  /// one snapshot describes the whole engine. Callback metrics take the
  /// epoch reader lock when evaluated, so never snapshot while holding the
  /// writer side.
  const obs::MetricsRegistry& metrics() const { return registry_; }
  /// MetricsRegistry::ToJson() of the registry above.
  std::string MetricsJson() const { return registry_.ToJson(); }
  /// Prometheus text exposition of the registry above.
  std::string MetricsPrometheus() const {
    return registry_.ToPrometheusText();
  }

  /// The served miner. With appends in flight, treat as a monitoring
  /// window (the epoch lock inside the service no longer protects you once
  /// the accessor returns).
  const core::HosMiner& miner() const { return miner_; }
  /// The configuration the service was constructed with.
  const QueryServiceConfig& config() const { return config_; }
  /// Null when the cache is disabled.
  const OdCache* cache() const { return cache_.get(); }
  int num_threads() const { return pool_.num_threads(); }

 private:
  core::QueryOptions MakeOptions(search::SharedOdStore* od_store) {
    core::QueryOptions options;
    options.od_store = od_store;
    options.max_od_evaluations = config_.max_od_evaluations;
    options.filter_mode = config_.filter_mode;
    options.filter_speculative_slack = config_.filter_speculative_slack;
    options.frontier_ordering = config_.frontier_ordering;
    options.filter_gate = config_.filter_gate;
    options.margin_histogram = filter_margin_hist_;
    return options;
  }

  /// The one read path, reached by Query, QueryAsync and every QueryBatch
  /// block: runs miner_.QueryBatchFused for `ids` under one epoch reader
  /// lock (with the version-bound cache view) and records per-point stats
  /// (block latency), NotFound rejects and the slow-query log. A
  /// `batch_block` is a QueryBatch block: its root span is "batch" rather
  /// than "service", and at a fusion width above 1 it also feeds the
  /// fused-batch counters. When tracing is on the block records one span
  /// tree, attached to every successful result.
  std::vector<Result<core::QueryResult>> RunTimedBlock(
      std::span<const data::PointId> ids, bool batch_block);

  /// Appends (steady_clock::now(), current dataset version) to
  /// version_history_. Called at construction and after every append
  /// commit; takes history_mu_ (a leaf lock — safe under epoch_mu_).
  void RecordVersionSample();

  /// Registers the pull-model metrics: OD-cache counters, dataset/ingest
  /// gauges and the per-backend kNN work counters (labelled by backend
  /// name, folded across engine swaps so the series stay monotone).
  void RegisterMetricCallbacks();

  /// Adds the current engine's backend_stats() into engine_offsets_.
  /// Caller must hold the writer side of epoch_mu_ — called right before a
  /// rebuild commit replaces the engine (and resets its counters).
  void FoldEngineStatsLocked();

  /// Current engine totals plus the folded offsets of every replaced
  /// engine. Caller must hold either side of epoch_mu_.
  knn::KnnBackendStats EngineStatsLocked() const;

  /// True when the churn (delta + unsealed tombstones) currently exceeds
  /// the rebuild policy. Caller must hold either side of epoch_mu_.
  bool PolicyWantsRebuild() const;

  /// True when the drift signal reaches the relearn policy. Caller must
  /// hold either side of epoch_mu_.
  bool PolicyWantsRelearn() const;

  /// Submits RunMaintenance to the worker if either policy wants work and
  /// no task is in flight. AppendBatch, DeleteRows and EvictBefore each
  /// call it once after their commit. Must be called WITHOUT epoch_mu_
  /// held.
  void ScheduleMaintenanceIfNeeded();

  /// The one maintenance task. While either policy wants work: rebuild
  /// (PrepareRebuild under the reader lock; engine-counter fold,
  /// CommitRebuild and pause timing under the writer lock), then relearn
  /// (PrepareLearning under the reader lock, CommitLearning under the
  /// writer lock). Mutations that land during a pass are picked up by the
  /// next one. Clears maintenance_scheduled_ when done and re-checks once,
  /// in case a mutation slipped past the final check. A failed rebuild
  /// prepare is logged and ends the task without re-arming (the next
  /// mutation re-triggers), so a persistent failure cannot spin.
  void RunMaintenance();

  core::HosMiner miner_;
  QueryServiceConfig config_;
  std::unique_ptr<OdCache> cache_;  // null when disabled
  /// Declared before stats_: ServiceStats holds handles into the registry.
  obs::MetricsRegistry registry_;
  ServiceStats stats_;
  /// Distribution of filter decision margins (positive = decided clearance,
  /// negative straddles clamp into bucket 0). Registered at construction
  /// when the filter is on; null otherwise so queries pay nothing.
  obs::Histogram* filter_margin_hist_ = nullptr;
  /// Backend work counters accumulated from engines replaced by rebuilds
  /// (an ingest rebuild swaps in a fresh engine whose counters start at
  /// zero). Guarded by epoch_mu_: written under the writer side only.
  knn::KnnBackendStats engine_offsets_;

  /// Monotonic-time → dataset-version samples for EvictOlderThan, in
  /// nondecreasing time and version order. Guarded by history_mu_, never
  /// epoch_mu_: EvictOlderThan must read it before taking the writer lock.
  std::mutex history_mu_;
  std::deque<std::pair<std::chrono::steady_clock::time_point, uint64_t>>
      version_history_;

  /// The ingest epoch lock: queries and rebuild-prepare are readers,
  /// append commits and rebuild commits are writers. Guards every access
  /// to miner_ state that appends mutate (dataset rows/version, engine,
  /// SoA view).
  mutable std::shared_mutex epoch_mu_;
  /// True while a maintenance task is scheduled or running (single-flight).
  std::atomic<bool> maintenance_scheduled_{false};

  /// Dedicated single-thread worker for the maintenance task (see the
  /// header comment for why it does not share the query pool). Created
  /// in the constructor when either policy is active, so no lazy-creation
  /// synchronization is needed; null otherwise (no policy can want work).
  std::unique_ptr<ThreadPool> maintenance_worker_;

  ThreadPool pool_;  // last member: workers must die before what they touch
};

}  // namespace hos::service

#endif  // HOS_SERVICE_QUERY_SERVICE_H_
