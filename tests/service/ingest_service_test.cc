// Serving-layer semantics of streaming ingest: append visibility, the
// version-keyed OD cache (a cached value computed before an append can
// never answer a query issued after it), the rebuild policy, and the
// ingest counters in ServiceStats.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/data/generator.h"
#include "src/service/query_service.h"

namespace hos::service {
namespace {

constexpr int kDims = 5;
constexpr size_t kInitialRows = 100;

std::vector<std::vector<double>> RandomRows(size_t n, Rng* rng) {
  std::vector<std::vector<double>> rows(n, std::vector<double>(kDims));
  for (auto& row : rows) {
    for (double& cell : row) cell = rng->Uniform();
  }
  return rows;
}

core::HosMinerConfig MinerConfig() {
  core::HosMinerConfig config;
  config.k = 3;
  config.threshold = 0.8;
  config.normalization = data::NormalizationKind::kNone;
  config.sample_size = 0;
  return config;
}

core::HosMiner BuildMiner(uint64_t seed,
                          const std::vector<std::vector<double>>& extra = {}) {
  Rng rng(seed);
  data::Dataset dataset = data::GenerateUniform(kInitialRows, kDims, &rng);
  if (!extra.empty()) {
    EXPECT_TRUE(dataset.AppendRows(extra).ok());
  }
  auto miner = core::HosMiner::Build(std::move(dataset), MinerConfig());
  EXPECT_TRUE(miner.ok()) << miner.status().ToString();
  return std::move(miner).value();
}

void ExpectSameAnswer(const core::QueryResult& a, const core::QueryResult& b) {
  EXPECT_EQ(a.outcome.minimal_outlying_subspaces,
            b.outcome.minimal_outlying_subspaces);
  EXPECT_EQ(a.outcome.evaluated_outliers, b.outcome.evaluated_outliers);
  EXPECT_EQ(a.outcome.outlier_fraction, b.outcome.outlier_fraction);
}

// The version-keyed cache acceptance property at the service level: warm
// the cache, append (which changes every OD), query again — the answers
// must match a from-scratch build on the grown data, which they cannot if
// any pre-append cached OD were served.
TEST(IngestServiceTest, CacheNeverServesPreAppendValues) {
  QueryServiceConfig config;
  config.num_threads = 2;
  config.ingest.rebuild_delta_fraction = 0.0;  // isolate the cache effect
  QueryService service(BuildMiner(5), config);

  const std::vector<data::PointId> ids = {0, 1, 2, 3, 4, 5, 6, 7};
  auto before = service.QueryBatch(ids);
  ASSERT_TRUE(before.ok());
  // Repeat to verify the cache is actually hit at a stable version.
  auto before_again = service.QueryBatch(ids);
  ASSERT_TRUE(before_again.ok());
  EXPECT_GT(service.Stats().cache_hits, 0u);

  Rng rng(123);
  const auto delta = RandomRows(40, &rng);
  auto version = service.AppendBatch(delta);
  ASSERT_TRUE(version.ok());

  auto after = service.QueryBatch(ids);
  ASSERT_TRUE(after.ok());

  // Reference: an uncached, from-scratch system over the grown dataset.
  core::HosMiner reference = BuildMiner(5, delta);
  for (size_t i = 0; i < ids.size(); ++i) {
    auto want = reference.Query(ids[i]);
    ASSERT_TRUE(want.ok());
    SCOPED_TRACE("query " + std::to_string(ids[i]));
    ExpectSameAnswer((*after)[i], *want);
    EXPECT_EQ((*after)[i].dataset_version, *version);
  }
}

TEST(IngestServiceTest, RebuildFoldsDeltaAndCounts) {
  QueryServiceConfig config;
  config.num_threads = 2;
  config.ingest.min_delta_rows = 8;
  config.ingest.rebuild_delta_fraction = 0.10;
  QueryService service(BuildMiner(9), config);

  Rng rng(7);
  // Small batch: below min_delta_rows, no rebuild.
  ASSERT_TRUE(service.AppendBatch(RandomRows(4, &rng)).ok());
  service.WaitForRebuilds();
  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.rebuilds_completed, 0u);
  EXPECT_EQ(stats.delta_rows, 4u);

  // Crossing both thresholds schedules one rebuild: delta folded.
  ASSERT_TRUE(service.AppendBatch(RandomRows(16, &rng)).ok());
  service.WaitForRebuilds();
  stats = service.Stats();
  EXPECT_EQ(stats.rebuilds_completed, 1u);
  EXPECT_EQ(stats.delta_rows, 0u);
  EXPECT_EQ(stats.rows_ingested, 20u);
  EXPECT_EQ(stats.append_batches, 2u);
  EXPECT_GE(stats.last_rebuild_pause_seconds, 0.0);

  EXPECT_EQ(service.miner().dataset().size(), kInitialRows + 20);
  auto result = service.Query(3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset_version, stats.dataset_version);
}

TEST(IngestServiceTest, AppendRejectsMalformedRowsAtomically) {
  QueryServiceConfig config;
  config.num_threads = 1;
  QueryService service(BuildMiner(13), config);
  const uint64_t v0 = service.Stats().dataset_version;

  std::vector<std::vector<double>> rows = {
      {0.1, 0.2, 0.3, 0.4, 0.5},
      {0.1, 0.2}};  // wrong width
  auto version = service.AppendBatch(rows);
  EXPECT_FALSE(version.ok());
  EXPECT_TRUE(version.status().IsInvalidArgument());
  // Nothing committed: version and size unchanged.
  EXPECT_EQ(service.Stats().dataset_version, v0);
  EXPECT_EQ(service.miner().dataset().size(), kInitialRows);
  EXPECT_EQ(service.Stats().rows_ingested, 0u);
}

TEST(IngestServiceTest, StatsAndMetricsJsonCarryIngestFields) {
  QueryServiceConfig config;
  config.ingest.rebuild_delta_fraction = 0.0;
  QueryService service(BuildMiner(17), config);
  Rng rng(1);
  ASSERT_TRUE(service.AppendBatch(RandomRows(3, &rng)).ok());
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.rows_ingested, 3u);
  EXPECT_EQ(stats.append_batches, 1u);
  EXPECT_EQ(stats.dataset_version, kInitialRows + 3);
  EXPECT_EQ(stats.delta_rows, 3u);
  const std::string json = service.MetricsJson();
  for (const char* series : {
           "\"name\": \"service_rows_ingested\", \"type\": \"counter\", "
           "\"value\": 3}",
           "\"name\": \"service_append_batches\", \"type\": \"counter\", "
           "\"value\": 1}",
           "\"name\": \"dataset_version\"",
           "\"name\": \"dataset_delta_rows\", \"type\": \"gauge\", "
           "\"value\": 3}",
       }) {
    EXPECT_NE(json.find(series), std::string::npos) << series << "\n" << json;
  }
}

}  // namespace
}  // namespace hos::service
