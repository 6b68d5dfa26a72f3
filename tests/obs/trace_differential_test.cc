// The tracing differential: collecting a trace must never change what a
// query answers — bitwise-identical outcomes and order-independent work
// counters, across both kNN engine layouts — and the
// trace that comes back must name every span level (service → search →
// strategy → wave → knn), with the same names for a single query and a
// fused block.
//
// Also covers the service-level integration: traced batches through
// QueryService (four workers tracing at once, the TSan shape), the
// slow-query counter, and the unified metrics snapshot carrying service,
// cache, ingest and per-backend kNN series at once.

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/core/hos_miner.h"
#include "src/data/generator.h"
#include "src/service/query_service.h"

namespace hos {
namespace {

data::GeneratedData MakePlanted(uint64_t seed, size_t n = 220, int d = 6) {
  Rng rng(seed);
  data::SubspaceOutlierSpec spec;
  spec.num_points = n;
  spec.num_dims = d;
  spec.planted_subspaces = {Subspace::FromOneBased({1, 2})};
  spec.displacement = 0.5;
  auto generated = data::GenerateSubspaceOutliers(spec, &rng);
  EXPECT_TRUE(generated.ok());
  return std::move(generated).value();
}

core::HosMiner BuildMiner(uint64_t seed, core::IndexKind index) {
  auto generated = MakePlanted(seed);
  core::HosMinerConfig config;
  config.index = index;
  auto miner = core::HosMiner::Build(std::move(generated.dataset), config);
  EXPECT_TRUE(miner.ok()) << miner.status().ToString();
  return std::move(miner).value();
}

/// Answers AND deterministic work counters must match exactly. (Sequential
/// single-threaded runs make even the engine-delta counters reproducible.)
void ExpectIdentical(const core::QueryResult& off, const core::QueryResult& on,
                     const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(off.outcome.num_dims, on.outcome.num_dims);
  EXPECT_EQ(off.outcome.threshold, on.outcome.threshold);
  EXPECT_EQ(off.outcome.minimal_outlying_subspaces,
            on.outcome.minimal_outlying_subspaces);
  EXPECT_EQ(off.outcome.evaluated_outliers, on.outcome.evaluated_outliers);
  EXPECT_EQ(off.outcome.outlier_fraction, on.outcome.outlier_fraction);
  EXPECT_EQ(off.outcome.counters.od_evaluations,
            on.outcome.counters.od_evaluations);
  EXPECT_EQ(off.outcome.counters.pruned_upward,
            on.outcome.counters.pruned_upward);
  EXPECT_EQ(off.outcome.counters.pruned_downward,
            on.outcome.counters.pruned_downward);
  EXPECT_EQ(off.outcome.counters.steps, on.outcome.counters.steps);
}

TEST(TraceDifferentialTest, TracingChangesNoAnswerOnAnyBackend) {
  const std::pair<core::IndexKind, const char*> kBackends[] = {
      {core::IndexKind::kLinearScan, "linear_scan"},
      {core::IndexKind::kXTree, "xtree"},
  };
  for (const auto& [index, index_name] : kBackends) {
    core::HosMiner miner = BuildMiner(31, index);
    for (data::PointId id = 0; id < 12; ++id) {
      const std::string context =
          std::string(index_name) + "/point " + std::to_string(id);
      auto off = miner.Query(id);
      ASSERT_TRUE(off.ok()) << context;
      EXPECT_EQ(off->trace, nullptr) << context;

      core::QueryOptions on_options;
      on_options.collect_trace = true;
      auto on = miner.Query(id, on_options);
      ASSERT_TRUE(on.ok()) << context;
      ExpectIdentical(*off, *on, context);

      // The trace names every level of the span hierarchy.
      ASSERT_NE(on->trace, nullptr) << context;
      const obs::QueryTrace& trace = *on->trace;
      EXPECT_EQ(trace.dropped_spans, 0u) << context;
      const obs::TraceSpan* search = trace.Find("search");
      ASSERT_NE(search, nullptr) << context;
      EXPECT_EQ(search->parent, -1) << context;
      const obs::TraceSpan* strategy = trace.Find("dynamic");
      ASSERT_NE(strategy, nullptr) << context;
      EXPECT_EQ(strategy->parent, search->id) << context;
      EXPECT_EQ(trace.CountByName("wave"), on->outcome.counters.steps)
          << context;
      const obs::TraceSpan* wave = trace.Find("wave");
      ASSERT_NE(wave, nullptr) << context;
      EXPECT_EQ(wave->parent, strategy->id) << context;
      EXPECT_EQ(trace.CountByName("knn"),
                on->outcome.counters.od_evaluations)
          << context;
      const obs::TraceSpan* knn = trace.Find("knn");
      ASSERT_NE(knn, nullptr) << context;
      EXPECT_EQ(trace.spans[static_cast<size_t>(knn->parent)].name, "wave")
          << context;
      EXPECT_EQ(knn->detail.rfind("mask=0x", 0), 0u) << context;
      EXPECT_NE(knn->detail.find(" points=1"), std::string::npos)
          << context;
    }
  }
}

TEST(TraceDifferentialTest, ServiceTracingMatchesUntracedService) {
  std::vector<data::PointId> ids(80);
  std::iota(ids.begin(), ids.end(), 0);

  service::QueryServiceConfig untraced_config;
  untraced_config.num_threads = 4;
  service::QueryService untraced(
      BuildMiner(32, core::IndexKind::kXTree), untraced_config);
  auto expected = untraced.QueryBatch(ids);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Tracing on, same pool, same cache: answers must be identical and every
  // result must carry a full span tree. Each worker records into its own
  // block's tracer while the others do the same — the TSan shape.
  service::QueryServiceConfig traced_config = untraced_config;
  traced_config.observability.trace_queries = true;
  service::QueryService traced(BuildMiner(32, core::IndexKind::kXTree),
                               traced_config);
  auto actual = traced.QueryBatch(ids);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();

  ASSERT_EQ(actual->size(), expected->size());
  for (size_t i = 0; i < ids.size(); ++i) {
    const std::string context = "point " + std::to_string(i);
    SCOPED_TRACE(context);
    const core::QueryResult& a = (*actual)[i];
    const core::QueryResult& e = (*expected)[i];
    // Only the answer is compared: through the service, work counters are
    // engine-wide deltas that concurrent queries bleed into.
    EXPECT_EQ(a.outcome.num_dims, e.outcome.num_dims);
    EXPECT_EQ(a.outcome.threshold, e.outcome.threshold);
    EXPECT_EQ(a.outcome.minimal_outlying_subspaces,
              e.outcome.minimal_outlying_subspaces);
    EXPECT_EQ(a.outcome.evaluated_outliers, e.outcome.evaluated_outliers);
    EXPECT_EQ(a.outcome.outlier_fraction, e.outcome.outlier_fraction);

    // QueryBatch runs fused blocks by default, so each result carries the
    // block's shared span tree: batch -> search -> dynamic -> wave -> knn
    // (store hits resolve silently inside the wave).
    ASSERT_NE(a.trace, nullptr);
    EXPECT_EQ(e.trace, nullptr);
    const obs::TraceSpan* root = a.trace->Find("batch");
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->parent, -1);
    const obs::TraceSpan* search = a.trace->Find("search");
    ASSERT_NE(search, nullptr);
    EXPECT_EQ(search->parent, root->id);
    const obs::TraceSpan* strategy = a.trace->Find("dynamic");
    ASSERT_NE(strategy, nullptr);
    EXPECT_EQ(strategy->parent, search->id);
    const obs::TraceSpan* wave = a.trace->Find("wave");
    ASSERT_NE(wave, nullptr);
    EXPECT_EQ(wave->parent, strategy->id);
    EXPECT_GT(a.trace->CountByName("knn"), 0u);
    const obs::TraceSpan* knn = a.trace->Find("knn");
    ASSERT_NE(knn, nullptr);
    EXPECT_EQ(a.trace->spans[static_cast<size_t>(knn->parent)].name, "wave");
  }

  // Aggregates reached the stats surface.
  const service::ServiceStatsSnapshot stats = traced.Stats();
  EXPECT_EQ(stats.queries_served, ids.size());
  EXPECT_GT(stats.od_evaluations, 0u);
  EXPECT_EQ(stats.slow_queries, 0u);  // no threshold configured
}

TEST(TraceDifferentialTest, SlowQueryThresholdCountsAndTraces) {
  service::QueryServiceConfig config;
  config.num_threads = 1;
  // Every query is "slow" against a picosecond threshold, so the counter
  // must move and the result still carries its trace.
  config.observability.slow_query_threshold_seconds = 1e-12;
  service::QueryService service(BuildMiner(33, core::IndexKind::kLinearScan),
                                config);
  auto result = service.Query(0);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->trace, nullptr);
  EXPECT_NE(result->trace->Find("service"), nullptr);

  const service::ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.slow_queries, 1u);
  EXPECT_NE(service.MetricsJson().find("\"name\": \"service_slow_queries\", "
                                       "\"type\": \"counter\", \"value\": 1}"),
            std::string::npos);
}

// The tentpole acceptance check: one MetricsRegistry snapshot describes the
// whole engine — service counters, OD-cache counters, ingest gauges, search
// aggregates and the per-backend kNN internals.
TEST(TraceDifferentialTest, OneMetricsSnapshotCoversEverySubsystem) {
  service::QueryServiceConfig config;
  config.num_threads = 2;
  service::QueryService service(BuildMiner(34, core::IndexKind::kXTree),
                                config);
  std::vector<data::PointId> ids(20);
  std::iota(ids.begin(), ids.end(), 0);
  ASSERT_TRUE(service.QueryBatch(ids).ok());
  ASSERT_TRUE(
      service.AppendBatch({{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}}).ok());
  service.WaitForRebuilds();

  const std::string json = service.MetricsJson();
  for (const char* series : {
           // service
           "\"service_queries_served\"", "\"service_batches_served\"",
           "\"service_query_latency_seconds\"", "\"service_slow_queries\"",
           // search aggregates
           "\"service_od_evaluations\"",
           // cache
           "\"od_cache_hits\"", "\"od_cache_misses\"", "\"od_cache_size\"",
           // ingest
           "\"service_rows_ingested\"", "\"service_append_batches\"",
           "\"service_rebuilds_completed\"", "\"dataset_version\"",
           "\"dataset_delta_rows\"",
           // per-backend kNN internals
           "\"knn_distance_computations\"", "\"knn_node_accesses\"",
           "\"knn_kernel_scans\"", "\"knn_delta_merges\"",
       }) {
    EXPECT_NE(json.find(series), std::string::npos) << series;
  }
  EXPECT_NE(json.find("\"backend\": \"xtree\""), std::string::npos);

  // And the Prometheus surface renders the same registry.
  const std::string prom = service.MetricsPrometheus();
  EXPECT_NE(prom.find("# TYPE service_queries_served counter"),
            std::string::npos);
  EXPECT_NE(prom.find("knn_distance_computations{backend=\"xtree\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace hos
