// The traced run: replays the untraced run's operation stream on a replica
// miner, through each layer's public functions, with the timing decorators
// of layer_timers.h. Per read operation:
//
//  * core    — HosMiner::Query (or QueryBatchFused for a batch block) with
//              a cache that mirrors the service's, exactly as the service
//              calls it;
//  * search  — DynamicSubspaceSearch::Run (BatchFrontierRunner::Run for a
//              block) over TimingKnn and TimingStore, on a second mirror
//              cache; knn and store time come from the decorators;
//  * plain   — the same Run undecorated, on a third mirror cache: the
//              untraced figure of the same operation, for
//              trace.overhead_pct;
//  * lattice — a second Run on the now warm evaluators: no kNN call, no
//              store probe, no filter consult, so its time is the pure
//              lattice/TSF walk;
//  * filter  — CoarseBounds / RefinedBounds / Decide on the logged
//              (point, mask) pairs;
//  * ingest  — every AppendBatch replayed as PrepareAppend / CommitAppend /
//              EvictOldest and, when the service's churn policy fires,
//              PrepareRebuild / CommitRebuild.
//
// Every replayed answer must equal the service's bitwise, so the layer
// numbers describe the program the untraced run measured.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "e2ebench/e2e.h"
#include "e2ebench/layer_timers.h"
#include "src/search/batch_frontier.h"
#include "src/search/subspace_search.h"

namespace hos::e2e {
namespace {

/// The replay stops adding operations past this much wall time, so a
/// traced run stays well inside its time limit on a slow host.
constexpr double kReplayBudgetSeconds = 100.0;

struct LayerTally {
  uint64_t points = 0;
  double core_seconds = 0.0;
  double run_seconds = 0.0;
  double plain_seconds = 0.0;
  double walk_seconds = 0.0;
  TimingKnn::Tally knn;
  TimingStore::Tally store;
  knn::KnnBackendStats backend;
  uint64_t od_evaluations = 0;
  uint64_t pruned = 0;
  uint64_t steps = 0;
  uint64_t bound_decisions = 0;
  uint64_t consults = 0;
  double churn_sum = 0.0;

  uint64_t filter_pairs = 0;
  double coarse_seconds = 0.0;
  double refined_seconds = 0.0;
  double decide_seconds = 0.0;
  uint64_t coarse_decided = 0;
  uint64_t refined_decided = 0;

  uint64_t probe_points = 0;
  double probe_seconds = 0.0;

  uint64_t appends = 0;
  uint64_t evicts = 0;
  uint64_t rebuilds = 0;
  double prepare_append_seconds = 0.0;
  double commit_append_seconds = 0.0;
  double evict_seconds = 0.0;
  double prepare_rebuild_seconds = 0.0;
  double commit_rebuild_seconds = 0.0;
};

void AddBackend(const knn::KnnBackendStats& before,
                const knn::KnnBackendStats& after, knn::KnnBackendStats* sum) {
  sum->distance_computations +=
      after.distance_computations - before.distance_computations;
  sum->node_accesses += after.node_accesses - before.node_accesses;
  sum->kernel_scans += after.kernel_scans - before.kernel_scans;
  sum->scalar_scans += after.scalar_scans - before.scalar_scans;
  sum->delta_merges += after.delta_merges - before.delta_merges;
  sum->stale_fallbacks += after.stale_fallbacks - before.stale_fallbacks;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

class Replayer {
 public:
  Replayer(const Workload& w, core::HosMiner replica, uint64_t* attempted,
           uint64_t* failed)
      : w_(w),
        replica_(std::move(replica)),
        service_config_(ServiceConfig(w)),
        core_cache_(service_config_.cache),
        search_cache_(service_config_.cache),
        plain_cache_(service_config_.cache),
        search_(w.num_dims, replica_.priors()),
        attempted_(attempted),
        failed_(failed) {}

  void Check(bool ok, const char* what) {
    ++*attempted_;
    if (ok) return;
    ++*failed_;
    if (*failed_ <= 10) std::fprintf(stderr, "replay check failed: %s\n", what);
  }

  void Append(const Op& op) {
    LayerTally& t = tally_;
    Clock::time_point start = Clock::now();
    Result<std::vector<std::vector<double>>> prepared =
        replica_.PrepareAppend(op.rows);
    t.prepare_append_seconds += SecondsSince(start);
    Check(prepared.ok(), "PrepareAppend");
    if (!prepared.ok()) return;
    start = Clock::now();
    replica_.CommitAppend(std::move(prepared).value());
    t.commit_append_seconds += SecondsSince(start);
    ++t.appends;
    const size_t window = service_config_.ingest.window_max_rows;
    if (window > 0 && replica_.live_rows() > window) {
      start = Clock::now();
      replica_.EvictOldest(replica_.live_rows() - window);
      t.evict_seconds += SecondsSince(start);
      ++t.evicts;
    }
    // The service's churn policy (QueryService::PolicyWantsRebuild), run
    // synchronously: rebuilds never change answers, only where rows live.
    const service::IngestConfig& ingest = service_config_.ingest;
    const size_t churn_rows =
        replica_.delta_rows() + replica_.dataset().unsealed_tombstones();
    if (ingest.rebuild_delta_fraction > 0.0 &&
        churn_rows >= ingest.min_delta_rows &&
        replica_.churn_fraction() > ingest.rebuild_delta_fraction) {
      Rebuild();
    }
  }

  void Rebuild() {
    Clock::time_point start = Clock::now();
    auto artifacts = replica_.PrepareRebuild();
    tally_.prepare_rebuild_seconds += SecondsSince(start);
    Check(artifacts.ok(), "PrepareRebuild");
    if (!artifacts.ok()) return;
    start = Clock::now();
    replica_.CommitRebuild(std::move(artifacts).value());
    tally_.commit_rebuild_seconds += SecondsSince(start);
    ++tally_.rebuilds;
  }

  /// Replays one read block (a Query id, or one fused block of a batch).
  /// `answers` are the service's answers for `ids`.
  void Read(std::span<const data::PointId> ids,
            std::span<const Answer> answers, bool timed, bool probe) {
    const int d = w_.num_dims;
    const bool fused = w_.kind == Kind::kBatchHot;
    const uint64_t version = replica_.version();
    service::OdCache::VersionView core_view(&core_cache_, version);
    service::OdCache::VersionView search_view(&search_cache_, version);
    service::OdCache::VersionView plain_view(&plain_cache_, version);
    core::QueryOptions options;
    options.od_store = &core_view;
    options.filter_mode = w_.filter_mode;

    search::SearchExecution exec;
    exec.filter = replica_.density_filter();
    exec.filter_mode = w_.filter_mode;

    LayerTally scratch;  // warm-up operations only feed the caches
    LayerTally& t = timed ? tally_ : scratch;
    TimingKnn knn(replica_.engine(), &t.knn);
    TimingStore store(&search_view, &t.store);
    t.knn.pairs.clear();

    std::vector<Answer> core_answers;
    const uint64_t core_hits_before = core_cache_.hits();
    int64_t core_deficit = 0;
    const auto run_core = [&] {
      const Clock::time_point start = Clock::now();
      std::vector<Result<core::QueryResult>> results;
      if (fused) {
        results = replica_.QueryBatchFused(ids, options);
      } else {
        results.push_back(replica_.Query(ids[0], options));
      }
      t.core_seconds += SecondsSince(start);
      for (const Result<core::QueryResult>& r : results) {
        Check(r.ok(), "core query");
        if (!r.ok()) continue;
        core_answers.push_back(AnswerOf(r->outcome));
        core_deficit += Unaccounted(r->outcome.counters, d);
      }
    };

    std::vector<search::OdEvaluator> evaluators;
    evaluators.reserve(ids.size());
    for (data::PointId id : ids) {
      evaluators.emplace_back(knn, replica_.dataset().Row(id),
                              replica_.config().k, id, &store);
    }
    std::vector<search::OdEvaluator*> pointers;
    for (search::OdEvaluator& od : evaluators) pointers.push_back(&od);
    std::vector<Result<search::SearchOutcome>> outcomes;
    const auto run_search = [&] {
      const knn::KnnBackendStats before = replica_.engine().backend_stats();
      const Clock::time_point start = Clock::now();
      if (fused) {
        outcomes = search::BatchFrontierRunner(d, &replica_.priors())
                       .Run(pointers, run_threshold_, exec);
      } else {
        outcomes.push_back(search_.Run(pointers[0], run_threshold_, exec));
      }
      t.run_seconds += SecondsSince(start);
      AddBackend(before, replica_.engine().backend_stats(), &t.backend);
    };

    std::vector<search::OdEvaluator> plain_evaluators;
    plain_evaluators.reserve(ids.size());
    for (data::PointId id : ids) {
      plain_evaluators.emplace_back(replica_.engine(),
                                    replica_.dataset().Row(id),
                                    replica_.config().k, id, &plain_view);
    }
    std::vector<search::OdEvaluator*> plain_pointers;
    for (search::OdEvaluator& od : plain_evaluators) {
      plain_pointers.push_back(&od);
    }
    const auto run_plain = [&] {
      std::vector<Result<search::SearchOutcome>> plain;
      const Clock::time_point start = Clock::now();
      if (fused) {
        plain = search::BatchFrontierRunner(d, &replica_.priors())
                    .Run(plain_pointers, run_threshold_, exec);
      } else {
        plain.push_back(search_.Run(plain_pointers[0], run_threshold_, exec));
      }
      t.plain_seconds += SecondsSince(start);
      for (size_t i = 0; i < plain.size(); ++i) {
        Check(plain[i].ok() && AnswerOf(*plain[i]) == answers[i],
              "undecorated search answer != service answer");
      }
    };

    // Every order of the three runs in turn, so none systematically
    // inherits another's warm CPU caches.
    static constexpr int kOrders[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                          {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
    const std::function<void()> runs[3] = {run_core, run_search, run_plain};
    for (int i : kOrders[reads_++ % 6]) runs[i]();
    Check(core_deficit ==
              static_cast<int64_t>(core_cache_.hits() - core_hits_before),
          "core: unaccounted subspaces != OD cache hits");

    // Masks the filter was consulted on (when on): every one that missed
    // the per-query memo.
    uint64_t consults = 0;
    for (size_t i = 0; i < ids.size(); ++i) {
      Check(outcomes[i].ok(), "search run");
      if (!outcomes[i].ok()) continue;
      const search::SearchCounters& c = outcomes[i]->counters;
      const uint64_t hits = evaluators[i].num_shared_hits();
      Check(Unaccounted(c, d) == static_cast<int64_t>(hits),
            "closure identity of the replayed search");
      Check(AnswerOf(*outcomes[i]) == answers[i],
            "replayed search answer != service answer");
      Check(i < core_answers.size() && core_answers[i] == answers[i],
            "replayed HosMiner answer != service answer");
      t.od_evaluations += c.od_evaluations;
      t.pruned += c.pruned_upward + c.pruned_downward;
      t.steps += c.steps;
      t.bound_decisions += c.bound_decisions;
      consults += c.od_evaluations + hits + c.bound_decisions;
    }
    t.consults += consults;
    t.points += ids.size();
    t.churn_sum += replica_.churn_fraction() * static_cast<double>(ids.size());

    // The masks the filter is consulted on: every exact call when the
    // filter is off; with it on, the masks the filter-off walk evaluates
    // (conservative mode evolves the lattice exactly as kOff does), which
    // a store-less filter-off run also leaves warm in its evaluators.
    std::vector<std::pair<data::PointId, uint64_t>> pairs = t.knn.pairs;
    std::vector<search::OdEvaluator> off_evaluators;
    TimingKnn::Tally off_tally;
    TimingKnn off_knn(replica_.engine(), &off_tally);
    std::vector<search::OdEvaluator*> warm = pointers;
    search::SearchExecution walk = exec;
    if (w_.filter_mode != filter::FilterMode::kOff) {
      walk.filter_mode = filter::FilterMode::kOff;
      off_evaluators.reserve(ids.size());
      warm.clear();
      for (data::PointId id : ids) {
        off_evaluators.emplace_back(off_knn, replica_.dataset().Row(id),
                                    replica_.config().k, id);
      }
      for (search::OdEvaluator& od : off_evaluators) warm.push_back(&od);
      uint64_t off_evaluations = 0;
      for (search::OdEvaluator* od : warm) {
        auto off = search_.Run(od, run_threshold_, walk);
        Check(off.ok(), "filter-off search run");
        if (off.ok()) off_evaluations += off->counters.od_evaluations;
      }
      Check(off_evaluations == consults,
            "conservative walk consulted other masks than the kOff walk");
      pairs = off_tally.pairs;
    }

    {
      const uint64_t knn_calls = t.knn.calls + off_tally.calls;
      const uint64_t lookups = t.store.lookups;
      const Clock::time_point start = Clock::now();
      for (search::OdEvaluator* od : warm) {
        // One by one for both drivers: a warm walk has no kNN work to fuse.
        auto again = search_.Run(od, run_threshold_, walk);
        Check(again.ok() && again->counters.od_evaluations == 0,
              "warm lattice walk evaluated a subspace");
      }
      t.walk_seconds += SecondsSince(start);
      Check(t.knn.calls + off_tally.calls == knn_calls &&
                t.store.lookups == lookups,
            "warm lattice walk called kNN or the store");
    }

    if (!probe || !timed) return;
    const filter::DensityBoundFilter& bounds = *replica_.density_filter();
    const int k = replica_.config().k;
    for (const auto& [id, mask] : pairs) {
      const std::span<const double> point = replica_.dataset().Row(id);
      Clock::time_point start = Clock::now();
      bounds.CoarseBounds(point, mask, k, id);
      t.coarse_seconds += SecondsSince(start);
      start = Clock::now();
      bounds.RefinedBounds(point, mask, k, id);
      t.refined_seconds += SecondsSince(start);
      start = Clock::now();
      const filter::FilterDecision decision =
          bounds.Decide(point, mask, k, id, run_threshold_,
                        filter::FilterMode::kConservative, 0.25);
      t.decide_seconds += SecondsSince(start);
      ++t.filter_pairs;
      if (decision.decided()) {
        if (decision.tier == filter::FilterDecision::Tier::kCoarse) {
          ++t.coarse_decided;
        } else {
          ++t.refined_decided;
        }
      }
    }
    // The fused core path without the service's cache: one block of the
    // batch, or a block of one for single queries.
    core::QueryOptions plain;
    plain.filter_mode = w_.filter_mode;
    const Clock::time_point start = Clock::now();
    const auto probed = replica_.QueryBatchFused(ids, plain);
    t.probe_seconds += SecondsSince(start);
    t.probe_points += ids.size();
    for (size_t i = 0; i < probed.size(); ++i) {
      Check(probed[i].ok() && AnswerOf(probed[i]->outcome) == answers[i],
            "store-less QueryBatchFused answer != service answer");
    }
  }

  /// Replays `ops`; returns the number replayed.
  size_t ReplayOps(const std::vector<Op>& ops, double threshold) {
    run_threshold_ = threshold;
    const size_t width =
        static_cast<size_t>(std::max(service_config_.batch_fusion_width, 1));
    const Clock::time_point start = Clock::now();
    size_t reads = 0;
    size_t replayed = 0;
    for (const Op& op : ops) {
      if (SecondsSince(start) > kReplayBudgetSeconds) break;
      ++replayed;
      if (op.type == Op::Type::kAppend) {
        Append(op);
        continue;
      }
      if (op.answers.size() != op.ids.size()) continue;  // failed upstream
      const bool probe = op.timed && reads++ % w_.probe_stride == 0;
      const size_t block = op.type == Op::Type::kBatch ? width : 1;
      for (size_t at = 0; at < op.ids.size(); at += block) {
        const size_t count = std::min(block, op.ids.size() - at);
        Read(std::span(op.ids).subspan(at, count),
             std::span(op.answers).subspan(at, count), op.timed, probe);
      }
    }
    return replayed;
  }

  /// Ingest cost on a workload whose stream never appends: four cycles of
  /// appending, evicting and one rebuild on the replica, after the replay.
  void IngestProbe(const data::Dataset& raw) {
    std::vector<std::vector<double>> rows;
    for (data::PointId id = 0; id < w_.append_rows && id < raw.size(); ++id) {
      const auto row = raw.Row(id);
      rows.emplace_back(row.begin(), row.end());
    }
    for (int cycle = 0; cycle < 4; ++cycle) {
      Op op;
      op.type = Op::Type::kAppend;
      op.rows = rows;
      Append(op);
      const Clock::time_point start = Clock::now();
      replica_.EvictOldest(rows.size());
      tally_.evict_seconds += SecondsSince(start);
      ++tally_.evicts;
    }
    Rebuild();
  }

  Metrics Finish(const UntracedRun& run, double prepare_rebuild_seconds,
                 double prepare_learning_seconds) const {
    const LayerTally& t = tally_;
    const double points = static_cast<double>(t.points);
    const double knn_points = static_cast<double>(t.knn.points);
    const double knn_ns = Ratio(t.knn.seconds * 1e9, t.knn.calls);
    const double decide_ns = Ratio(t.decide_seconds * 1e9, t.filter_pairs);
    const double run_us = Ratio(t.run_seconds * 1e6, points);
    const double core_us = Ratio(t.core_seconds * 1e6, points);
    const double lattice =
        static_cast<double>(Subspace::Full(w_.num_dims).mask());
    const bool filter_on = w_.filter_mode != filter::FilterMode::kOff;
    const double filter_us_per_query =
        filter_on ? decide_ns * 1e-3 * Ratio(t.consults, points) : 0.0;
    const double commit_rebuild_us =
        Ratio(t.commit_rebuild_seconds * 1e6, t.rebuilds);
    return {
        {"knn.search_ns", knn_ns, "ns"},
        {"knn.calls_per_query", Ratio(t.knn.calls, points), "count"},
        {"knn.share", Ratio(t.knn.seconds, t.run_seconds), "frac"},
        {"knn.batch_ns_per_point", Ratio(t.knn.seconds * 1e9, knn_points),
         "ns"},
        {"knn.dist_per_call",
         Ratio(t.backend.distance_computations, knn_points), "count"},
        {"index.nodes_per_call", Ratio(t.backend.node_accesses, knn_points),
         "count"},
        {"kernels.scans_per_call", Ratio(t.backend.kernel_scans, knn_points),
         "count"},
        {"knn.delta_merges_per_call",
         Ratio(t.backend.delta_merges, knn_points), "count"},
        {"knn.scalar_scans", static_cast<double>(t.backend.scalar_scans),
         "count"},
        {"knn.stale_fallbacks",
         static_cast<double>(t.backend.stale_fallbacks), "count"},
        {"search.run_us", run_us, "us"},
        {"search.self_us",
         Ratio((t.run_seconds - t.knn.seconds - t.store.lookup_seconds -
                t.store.store_seconds) *
                   1e6,
               points),
         "us"},
        {"search.od_evals_per_query", Ratio(t.od_evaluations, points),
         "count"},
        {"search.pruned_frac", Ratio(t.pruned, points * lattice), "frac"},
        {"search.steps_per_query", Ratio(t.steps, points), "count"},
        {"search.fused_width", Ratio(knn_points, t.knn.calls), "count"},
        {"lattice.walk_us", Ratio(t.walk_seconds * 1e6, points), "us"},
        {"lattice.walk_share", Ratio(t.walk_seconds, t.run_seconds), "frac"},
        {"filter.coarse_ns", Ratio(t.coarse_seconds * 1e9, t.filter_pairs),
         "ns"},
        {"filter.refined_ns", Ratio(t.refined_seconds * 1e9, t.filter_pairs),
         "ns"},
        {"filter.decide_ns", decide_ns, "ns"},
        {"filter.coarse_decided_frac", Ratio(t.coarse_decided, t.filter_pairs),
         "frac"},
        {"filter.refined_decided_frac",
         Ratio(t.refined_decided, t.filter_pairs), "frac"},
        {"filter.bound_decisions_per_query", Ratio(t.bound_decisions, points),
         "count"},
        {"filter.cost_per_knn", Ratio(decide_ns, knn_ns), "ratio"},
        {"filter.share", Ratio(filter_us_per_query, run_us), "frac"},
        {"service.overhead_us", run.service_overhead_seconds * 1e6, "us"},
        {"cache.hit_rate", Ratio(t.store.hits, t.store.lookups), "frac"},
        {"cache.lookup_ns",
         Ratio(t.store.lookup_seconds * 1e9, t.store.lookups), "ns"},
        {"cache.store_ns", Ratio(t.store.store_seconds * 1e9, t.store.stores),
         "ns"},
        {"cache.evictions", static_cast<double>(search_cache_.evictions()),
         "count"},
        {"service.rebuild_pause_us",
         run.last_rebuild_pause_seconds > 0.0
             ? run.last_rebuild_pause_seconds * 1e6
             : commit_rebuild_us,
         "us"},
        {"ingest.prepare_append_us",
         Ratio(t.prepare_append_seconds * 1e6, t.appends), "us"},
        {"ingest.commit_append_us",
         Ratio(t.commit_append_seconds * 1e6, t.appends), "us"},
        {"ingest.evict_us", Ratio(t.evict_seconds * 1e6, t.evicts), "us"},
        {"ingest.prepare_rebuild_ms",
         Ratio(t.prepare_rebuild_seconds * 1e3, t.rebuilds), "ms"},
        {"ingest.commit_rebuild_us", commit_rebuild_us, "us"},
        {"ingest.rebuilds", static_cast<double>(stream_rebuilds_), "count"},
        {"data.churn_frac_mean", Ratio(t.churn_sum, points), "frac"},
        {"core.query_us", core_us, "us"},
        {"core.batch_us_per_point",
         Ratio(t.probe_seconds * 1e6, t.probe_points), "us"},
        {"core.prepare_rebuild_ms", prepare_rebuild_seconds * 1e3, "ms"},
        {"learning.prepare_ms", prepare_learning_seconds * 1e3, "ms"},
        {"trace.overhead_pct",
         Ratio((t.run_seconds - t.plain_seconds) * 100.0, t.plain_seconds),
         "%"},
    };
  }

  bool appended() const { return tally_.appends > 0; }
  void MarkStreamRebuilds() { stream_rebuilds_ = tally_.rebuilds; }

 private:
  const Workload& w_;
  core::HosMiner replica_;
  service::QueryServiceConfig service_config_;
  service::OdCache core_cache_;
  service::OdCache search_cache_;
  service::OdCache plain_cache_;
  search::DynamicSubspaceSearch search_;
  uint64_t* attempted_;
  uint64_t* failed_;
  double run_threshold_ = 0.0;
  uint64_t reads_ = 0;
  uint64_t stream_rebuilds_ = 0;
  LayerTally tally_;
};

}  // namespace

Metrics TracedReplay(const Workload& w, const data::Dataset& dataset,
                     const UntracedRun& run, uint64_t* attempted,
                     uint64_t* failed) {
  auto replica = core::HosMiner::Build(dataset, MinerConfig(w));
  if (!replica.ok()) {
    std::fprintf(stderr, "replica build failed: %s\n",
                 replica.status().ToString().c_str());
    ++*attempted;
    ++*failed;
    return {};
  }
  // The setup split, on the freshly built replica (artifacts discarded).
  Clock::time_point start = Clock::now();
  { auto discarded = replica->PrepareRebuild(); }
  const double prepare_rebuild_seconds = SecondsSince(start);
  start = Clock::now();
  { auto discarded = replica->PrepareLearning(); }
  const double prepare_learning_seconds = SecondsSince(start);

  const bool same_threshold = replica->threshold() == run.threshold;
  Replayer replayer(w, std::move(replica).value(), attempted, failed);
  replayer.Check(same_threshold, "replica threshold != service threshold");
  const size_t replayed = replayer.ReplayOps(run.ops, run.threshold);
  std::printf("traced replay covered %zu of %zu operations\n", replayed,
              run.ops.size());
  replayer.MarkStreamRebuilds();
  if (!replayer.appended()) replayer.IngestProbe(dataset);
  return replayer.Finish(run, prepare_rebuild_seconds,
                         prepare_learning_seconds);
}

}  // namespace hos::e2e
