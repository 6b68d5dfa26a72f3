#include "src/service/query_service.h"

#include <chrono>
#include <mutex>
#include <thread>
#include <utility>

#include "src/common/logging.h"
#include "src/common/timer.h"
#include "src/obs/trace.h"

namespace hos::service {

QueryService::QueryService(core::HosMiner miner, QueryServiceConfig config)
    : miner_(std::move(miner)),
      config_(config),
      cache_(config.enable_od_cache ? std::make_unique<OdCache>(config.cache)
                                    : nullptr),
      stats_(&registry_),
      search_pool_(config.search_threads > 1
                       ? std::make_unique<ThreadPool>(config.search_threads)
                       : nullptr),
      maintenance_worker_(config.ingest.rebuild_delta_fraction > 0.0 ||
                                  config.ingest.relearn_staleness_threshold >
                                      0.0
                              ? std::make_unique<ThreadPool>(1)
                              : nullptr),
      pool_(config.num_threads) {
  // Seed the time → version history so EvictOlderThan can age out the
  // build-time rows too, not just post-construction appends.
  RecordVersionSample();
  RegisterMetricCallbacks();
  if (config_.filter_mode != filter::FilterMode::kOff) {
    filter_margin_hist_ =
        registry_.GetHistogram("service_filter_margin_distribution");
  }
}

void QueryService::RegisterMetricCallbacks() {
  if (cache_ != nullptr) {
    OdCache* cache = cache_.get();
    registry_.RegisterCallback(
        "od_cache_hits", {}, obs::MetricType::kCounter,
        [cache] { return static_cast<double>(cache->hits()); });
    registry_.RegisterCallback(
        "od_cache_misses", {}, obs::MetricType::kCounter,
        [cache] { return static_cast<double>(cache->misses()); });
    registry_.RegisterCallback(
        "od_cache_evictions", {}, obs::MetricType::kCounter,
        [cache] { return static_cast<double>(cache->evictions()); });
    registry_.RegisterCallback(
        "od_cache_size", {}, obs::MetricType::kGauge,
        [cache] { return static_cast<double>(cache->size()); });
    registry_.RegisterCallback("od_cache_hit_rate", {},
                               obs::MetricType::kGauge,
                               [cache] { return cache->hit_rate(); });
  }
  // Dataset gauges and engine counters read state that appends and rebuilds
  // mutate, so the closures take the epoch reader lock. Snapshots must
  // therefore never run under the writer side (see metrics() doc).
  registry_.RegisterCallback(
      "dataset_version", {}, obs::MetricType::kGauge, [this] {
        std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
        return static_cast<double>(miner_.version());
      });
  registry_.RegisterCallback(
      "dataset_delta_rows", {}, obs::MetricType::kGauge, [this] {
        std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
        return static_cast<double>(miner_.delta_rows());
      });
  registry_.RegisterCallback(
      "dataset_delta_fraction", {}, obs::MetricType::kGauge, [this] {
        std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
        return miner_.delta_fraction();
      });
  registry_.RegisterCallback(
      "dataset_live_rows", {}, obs::MetricType::kGauge, [this] {
        std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
        return static_cast<double>(miner_.live_rows());
      });
  registry_.RegisterCallback(
      "dataset_tombstone_rows", {}, obs::MetricType::kGauge, [this] {
        std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
        return static_cast<double>(miner_.dataset().num_tombstones());
      });
  registry_.RegisterCallback(
      "dataset_churn_fraction", {}, obs::MetricType::kGauge, [this] {
        std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
        return miner_.churn_fraction();
      });
  registry_.RegisterCallback(
      "learning_staleness", {}, obs::MetricType::kGauge, [this] {
        std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
        return miner_.learning_staleness();
      });

  // Per-backend kNN counters, labelled by the backend that serves this
  // miner (fixed by config, so the label is stable across rebuilds even
  // though the engine object is not).
  const obs::Labels backend_labels = {
      {"backend", miner_.engine().backend_stats().backend}};
  struct Field {
    const char* name;
    uint64_t knn::KnnBackendStats::*member;
  };
  static constexpr Field kFields[] = {
      {"knn_distance_computations",
       &knn::KnnBackendStats::distance_computations},
      {"knn_node_accesses", &knn::KnnBackendStats::node_accesses},
      {"knn_kernel_scans", &knn::KnnBackendStats::kernel_scans},
      {"knn_delta_merges", &knn::KnnBackendStats::delta_merges},
  };
  for (const Field& field : kFields) {
    auto member = field.member;
    registry_.RegisterCallback(
        field.name, backend_labels, obs::MetricType::kCounter,
        [this, member] {
          std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
          return static_cast<double>(EngineStatsLocked().*member);
        });
  }
}

knn::KnnBackendStats QueryService::EngineStatsLocked() const {
  knn::KnnBackendStats stats = miner_.engine().backend_stats();
  stats.distance_computations += engine_offsets_.distance_computations;
  stats.node_accesses += engine_offsets_.node_accesses;
  stats.kernel_scans += engine_offsets_.kernel_scans;
  stats.delta_merges += engine_offsets_.delta_merges;
  return stats;
}

void QueryService::FoldEngineStatsLocked() {
  const knn::KnnBackendStats old = miner_.engine().backend_stats();
  engine_offsets_.distance_computations += old.distance_computations;
  engine_offsets_.node_accesses += old.node_accesses;
  engine_offsets_.kernel_scans += old.kernel_scans;
  engine_offsets_.delta_merges += old.delta_merges;
}

std::vector<Result<core::QueryResult>> QueryService::RunTimedBlock(
    std::span<const data::PointId> ids, bool batch_block) {
  const ObservabilityConfig& obs_config = config_.observability;
  const bool traced = obs_config.trace_queries ||
                      obs_config.slow_query_threshold_seconds > 0.0;
  obs::QueryTracer tracer;  // unused (and cheap) when tracing is off
  // A Query names its point; a QueryBatch block counts its points.
  const std::string detail =
      !traced       ? std::string()
      : batch_block ? "points=" + std::to_string(ids.size())
                    : "point=" + std::to_string(ids.front());
  Timer timer;
  std::vector<Result<core::QueryResult>> results;
  {
    // The root span covers the same window the latency histogram measures:
    // epoch-lock wait plus the whole search. Its tree reads service (or
    // batch) → search → dynamic → wave → knn.
    obs::ScopedSpan root_span(traced ? &tracer : nullptr,
                              batch_block ? "batch" : "service", -1, detail);
    // Reader side of the epoch lock, held once for the block: every point
    // observes one committed dataset state for its whole run, and the
    // version it binds into the cache view (and reports in its result) is
    // that state's version.
    std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
    OdCache::VersionView versioned_store(cache_.get(), miner_.version());
    core::QueryOptions options =
        MakeOptions(cache_ != nullptr ? &versioned_store : nullptr);
    if (traced) {
      options.tracer = &tracer;
      options.trace_parent = root_span.id();
    }
    results = miner_.QueryBatchFused(ids, options);
  }
  // Block latency, recorded once per point: the per-point share is not
  // separable on the fused path (monitoring data, like the work counters).
  const double latency = timer.ElapsedSeconds();
  std::shared_ptr<const obs::QueryTrace> trace;
  if (traced) {
    trace = std::make_shared<const obs::QueryTrace>(tracer.Finish());
  }
  uint64_t evaluations = 0;
  for (Result<core::QueryResult>& result : results) {
    if (result.ok()) {
      const search::SearchCounters& counters =
          result.value().outcome.counters;
      evaluations += counters.od_evaluations;
      stats_.RecordQuery(latency, &counters);
      if (traced) result.value().trace = trace;
    } else {
      stats_.RecordQuery(latency, nullptr);
      // The id was deleted / slid out of the window: a clean client-visible
      // rejection.
      if (result.status().IsNotFound()) stats_.RecordEvictedReject();
    }
  }
  if (batch_block && config_.batch_fusion_width > 1) {
    stats_.RecordFusedBatch(ids.size(), evaluations);
  }
  if (traced && obs_config.slow_query_threshold_seconds > 0.0 &&
      latency >= obs_config.slow_query_threshold_seconds) {
    stats_.RecordSlowQuery();
    HOS_LOG(Warning) << (batch_block ? "slow batch: " : "slow query: ")
                     << detail << " latency_seconds=" << latency
                     << " trace=" << trace->ToJson();
  }
  return results;
}

Result<core::QueryResult> QueryService::Query(data::PointId id) {
  return std::move(RunTimedBlock({&id, 1}, /*batch_block=*/false).front());
}

std::future<Result<core::QueryResult>> QueryService::QueryAsync(
    data::PointId id) {
  return pool_.SubmitWithResult([this, id]() { return Query(id); });
}

Result<std::vector<core::QueryResult>> QueryService::QueryBatch(
    std::span<const data::PointId> ids) {
  stats_.RecordBatch();

  // One pool task per block of `width` ids; each block's lattice searches
  // are co-scheduled so coinciding OD evaluations share one engine pass
  // (answers identical — see batch_frontier.h). Each task writes only its
  // own block, so block order (not completion order) defines the output,
  // and the batch is deterministic.
  const size_t width =
      static_cast<size_t>(std::max(config_.batch_fusion_width, 1));
  std::vector<std::vector<Result<core::QueryResult>>> blocks(
      (ids.size() + width - 1) / width);
  {
    std::vector<std::future<void>> done;
    done.reserve(blocks.size());
    for (size_t b = 0; b < blocks.size(); ++b) {
      const size_t start = b * width;
      const std::span<const data::PointId> block =
          ids.subspan(start, std::min(width, ids.size() - start));
      done.push_back(pool_.SubmitWithResult([this, block, &out = blocks[b]]() {
        out = RunTimedBlock(block, /*batch_block=*/true);
      }));
    }
    // Wait for every task before collecting: get() can rethrow a task's
    // exception, and unwinding with workers still writing into `blocks`
    // would be a use-after-free. wait() never throws.
    for (std::future<void>& f : done) f.wait();
    for (std::future<void>& f : done) f.get();
  }

  std::vector<core::QueryResult> results;
  results.reserve(ids.size());
  for (std::vector<Result<core::QueryResult>>& block : blocks) {
    for (Result<core::QueryResult>& result : block) {
      if (!result.ok()) return result.status();  // first error in id order
      results.push_back(std::move(result).value());
    }
  }
  return results;
}

Result<uint64_t> QueryService::AppendBatch(
    const std::vector<std::vector<double>>& rows) {
  // Validation and per-row normalization are read-only against the served
  // state, so they run before the writer lock; the exclusive section is
  // just the row copy into the dataset.
  Result<std::vector<std::vector<double>>> prepared =
      miner_.PrepareAppend(rows);
  if (!prepared.ok()) return prepared.status();

  uint64_t version = 0;
  {
    // Writer side: the batch becomes visible to queries atomically.
    std::unique_lock<std::shared_mutex> epoch(epoch_mu_);
    version = miner_.CommitAppend(std::move(prepared).value());
    stats_.RecordAppend(rows.size());
    // Row-count sliding window: evict the oldest live rows inside the
    // same commit, so no query ever observes an over-full window (the
    // version the batch reports is the post-eviction state).
    const size_t window = config_.ingest.window_max_rows;
    if (window > 0 && miner_.live_rows() > window) {
      stats_.RecordEvict(miner_.EvictOldest(miner_.live_rows() - window));
      version = miner_.version();
    }
    RecordVersionSample();
  }
  ScheduleMaintenanceIfNeeded();
  return version;
}

Result<uint64_t> QueryService::DeleteRows(
    std::span<const data::PointId> ids) {
  Result<uint64_t> version = Status::Internal("delete did not run");
  {
    // Writer side: the whole batch (all-or-nothing in the dataset) becomes
    // invisible to queries atomically.
    std::unique_lock<std::shared_mutex> epoch(epoch_mu_);
    version = miner_.Delete(ids);
    if (version.ok()) stats_.RecordDelete(ids.size());
  }
  if (!version.ok()) return version.status();
  ScheduleMaintenanceIfNeeded();
  return version;
}

void QueryService::RecordVersionSample() {
  // Reads miner_.version() — callers hold the epoch writer lock (or are
  // the constructor, where nothing else runs yet).
  const uint64_t version = miner_.version();
  std::lock_guard<std::mutex> lock(history_mu_);
  version_history_.emplace_back(std::chrono::steady_clock::now(), version);
}

size_t QueryService::EvictOlderThan(double seconds) {
  const std::chrono::steady_clock::time_point now =
      std::chrono::steady_clock::now();
  uint64_t watermark = 0;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(history_mu_);
    // Samples are time-ordered; the last one at least `seconds` old is the
    // newest version fully older than the horizon. Ages are compared as
    // doubles, so a huge, infinite or NaN `seconds` is never converted to
    // an integer duration; NaN and +inf match no sample.
    for (const auto& [when, version] : version_history_) {
      const double age = std::chrono::duration<double>(now - when).count();
      if (!(age >= seconds)) break;
      watermark = version;
      found = true;
    }
    // Already-consumed samples can never move a future watermark (versions
    // only grow), so drop all but the watermark sample itself.
    while (version_history_.size() > 1 &&
           version_history_.front().second < watermark) {
      version_history_.pop_front();
    }
  }
  if (!found) return 0;
  // Rows appended at version <= watermark existed at the horizon sample;
  // EvictBefore's bound is exclusive.
  return EvictBefore(watermark + 1);
}

size_t QueryService::EvictBefore(uint64_t version) {
  size_t evicted = 0;
  {
    std::unique_lock<std::shared_mutex> epoch(epoch_mu_);
    evicted = miner_.EvictBefore(version);
    stats_.RecordEvict(evicted);
  }
  if (evicted > 0) ScheduleMaintenanceIfNeeded();
  return evicted;
}

bool QueryService::PolicyWantsRebuild() const {
  const IngestConfig& ingest = config_.ingest;
  // Churn counts both halves of the window's drift: appended rows the
  // sealed structures lack, and tombstoned rows they still contain.
  const size_t churn_rows =
      miner_.delta_rows() + miner_.dataset().unsealed_tombstones();
  return ingest.rebuild_delta_fraction > 0.0 &&
         churn_rows >= ingest.min_delta_rows &&
         miner_.churn_fraction() > ingest.rebuild_delta_fraction;
}

bool QueryService::PolicyWantsRelearn() const {
  const IngestConfig& ingest = config_.ingest;
  return ingest.relearn_staleness_threshold > 0.0 &&
         miner_.learning_staleness() >= ingest.relearn_staleness_threshold;
}

void QueryService::ScheduleMaintenanceIfNeeded() {
  {
    std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
    if (!PolicyWantsRebuild() && !PolicyWantsRelearn()) return;
  }
  if (maintenance_scheduled_.exchange(true, std::memory_order_acq_rel)) {
    return;  // single-flight: the running task re-checks when it is done
  }
  maintenance_worker_->Submit([this] { RunMaintenance(); });
}

void QueryService::RunMaintenance() {
  while (true) {
    bool rebuild = false;
    bool relearn = false;
    {
      std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
      rebuild = PolicyWantsRebuild();
      relearn = PolicyWantsRelearn();
    }
    if (!rebuild && !relearn) break;
    if (rebuild) {
      // Heavy phase under the reader lock: queries keep running against the
      // current engine while the fresh snapshot and index are built.
      // Mutations wait (they need the writer side), which also pins the
      // row count the artifacts cover.
      Result<core::HosMiner::RebuildArtifacts> artifacts =
          Status::Internal("rebuild did not run");
      {
        std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
        artifacts = miner_.PrepareRebuild();
      }
      if (!artifacts.ok()) {
        // Do not loop or re-arm on failure — that would spin on a
        // persistently failing prepare. The next mutation re-triggers.
        HOS_LOG(Warning) << "ingest rebuild failed (service keeps serving "
                            "via the delta scan): "
                         << artifacts.status().ToString();
        maintenance_scheduled_.store(false, std::memory_order_release);
        return;
      }
      double pause_seconds = 0.0;
      {
        std::unique_lock<std::shared_mutex> epoch(epoch_mu_);
        Timer pause;  // time only the held section — the pause others see
        // The commit swaps in a fresh engine whose work counters start at
        // zero; fold the outgoing engine's totals into the offsets first
        // so the exported per-backend series stay monotone across the swap.
        FoldEngineStatsLocked();
        miner_.CommitRebuild(std::move(artifacts).value());
        pause_seconds = pause.ElapsedSeconds();
      }
      stats_.RecordRebuild(pause_seconds);
    }
    if (relearn) {
      // The sampling-based learner re-runs full lattice searches over the
      // live rows under the reader lock, concurrently with queries; the
      // commit is an O(1) swap. Priors only steer search order, so answers
      // before and after it are identical.
      core::HosMiner::LearningArtifacts artifacts;
      {
        std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
        artifacts = miner_.PrepareLearning();
      }
      {
        std::unique_lock<std::shared_mutex> epoch(epoch_mu_);
        miner_.CommitLearning(std::move(artifacts));
      }
      stats_.RecordRelearn();
    }
  }
  maintenance_scheduled_.store(false, std::memory_order_release);
  // A mutation may have committed after the final policy check but before
  // the flag cleared; its own schedule call saw the flag still set. Close
  // the race by re-checking.
  ScheduleMaintenanceIfNeeded();
}

void QueryService::WaitForRebuilds() {
  while (maintenance_scheduled_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

ServiceStatsSnapshot QueryService::Stats() const {
  ServiceStatsSnapshot snapshot = stats_.Snapshot();
  if (cache_ != nullptr) {
    snapshot.cache_hits = cache_->hits();
    snapshot.cache_misses = cache_->misses();
    snapshot.cache_hit_rate = cache_->hit_rate();
  }
  {
    std::shared_lock<std::shared_mutex> epoch(epoch_mu_);
    snapshot.dataset_version = miner_.version();
    snapshot.delta_rows = miner_.delta_rows();
    snapshot.delta_fraction = miner_.delta_fraction();
    snapshot.live_rows = miner_.live_rows();
    snapshot.tombstone_rows = miner_.dataset().num_tombstones();
    snapshot.churn_fraction = miner_.churn_fraction();
    snapshot.learning_staleness = miner_.learning_staleness();
  }
  return snapshot;
}

}  // namespace hos::service
