#include "src/service/query_service.h"

#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

#include "src/data/generator.h"

namespace hos::service {
namespace {

data::GeneratedData MakePlanted(uint64_t seed, size_t n = 300, int d = 6) {
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

core::HosMiner BuildMiner(uint64_t seed,
                          core::IndexKind index = core::IndexKind::kXTree) {
  auto generated = MakePlanted(seed);
  core::HosMinerConfig config;
  config.index = index;
  auto miner = core::HosMiner::Build(std::move(generated.dataset), config);
  EXPECT_TRUE(miner.ok()) << miner.status().ToString();
  return std::move(miner).value();
}

/// The answer-bearing parts of a SearchOutcome must match bit-for-bit;
/// work counters and wall-clock are allowed to differ (the cache changes
/// how much work happens, never what is answered).
void ExpectSameAnswer(const core::QueryResult& a, const core::QueryResult& b,
                      size_t query_index) {
  SCOPED_TRACE("query " + std::to_string(query_index));
  EXPECT_EQ(a.outcome.num_dims, b.outcome.num_dims);
  EXPECT_EQ(a.outcome.threshold, b.outcome.threshold);
  EXPECT_EQ(a.outcome.minimal_outlying_subspaces,
            b.outcome.minimal_outlying_subspaces);
  EXPECT_EQ(a.outcome.evaluated_outliers, b.outcome.evaluated_outliers);
  EXPECT_EQ(a.outcome.outlier_fraction, b.outcome.outlier_fraction);
}

TEST(QueryServiceTest, SingleQueryMatchesMiner) {
  core::HosMiner miner = BuildMiner(11);
  auto expected = miner.Query(0);
  ASSERT_TRUE(expected.ok());

  QueryService service(BuildMiner(11), {});
  auto actual = service.Query(0);
  ASSERT_TRUE(actual.ok());
  ExpectSameAnswer(*actual, *expected, 0);
}

// The tentpole acceptance test: a batch spread over 8 worker threads with
// the shared OD cache on must return exactly what a serial Query loop
// returns, in the same order.
TEST(QueryServiceTest, EightThreadBatchIdenticalToSerial) {
  core::HosMiner serial_miner = BuildMiner(12);
  std::vector<data::PointId> ids(serial_miner.dataset().size());
  std::iota(ids.begin(), ids.end(), 0);

  std::vector<core::QueryResult> expected;
  for (data::PointId id : ids) {
    auto r = serial_miner.Query(id);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(r).value());
  }

  QueryServiceConfig config;
  config.num_threads = 8;
  config.enable_od_cache = true;
  QueryService service(BuildMiner(12), config);

  auto batch = service.QueryBatch(ids);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectSameAnswer((*batch)[i], expected[i], i);
  }
}

// Inter-query (worker pool) and intra-query (shared search pool)
// parallelism composed: every in-flight query fans its lattice frontier
// across the same dedicated search pool, and the answers must still be
// exactly the serial ones. This is the shape the TSan CI job leans on —
// concurrent queries issuing concurrent frontier waves against one engine
// and one OD cache.
TEST(QueryServiceTest, ParallelFrontierBatchIdenticalToSerial) {
  core::HosMiner serial_miner = BuildMiner(19);
  std::vector<data::PointId> ids(120);
  std::iota(ids.begin(), ids.end(), 0);

  std::vector<core::QueryResult> expected;
  for (data::PointId id : ids) {
    auto r = serial_miner.Query(id);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(r).value());
  }

  QueryServiceConfig config;
  config.num_threads = 4;
  config.search_threads = 4;
  config.enable_od_cache = true;
  QueryService service(BuildMiner(19), config);

  auto batch = service.QueryBatch(ids);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectSameAnswer((*batch)[i], expected[i], i);
  }
}

TEST(QueryServiceTest, CacheOffBatchAlsoIdenticalToSerial) {
  core::HosMiner serial_miner = BuildMiner(13);
  std::vector<data::PointId> ids(100);
  std::iota(ids.begin(), ids.end(), 0);

  QueryServiceConfig config;
  config.num_threads = 8;
  config.enable_od_cache = false;
  QueryService service(BuildMiner(13), config);
  EXPECT_EQ(service.cache(), nullptr);

  auto batch = service.QueryBatch(ids);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto r = serial_miner.Query(ids[i]);
    ASSERT_TRUE(r.ok());
    ExpectSameAnswer((*batch)[i], *r, i);
  }
}

TEST(QueryServiceTest, RepeatedBatchHitsTheCache) {
  QueryServiceConfig config;
  config.num_threads = 4;
  QueryService service(BuildMiner(14), config);

  std::vector<data::PointId> ids(50);
  std::iota(ids.begin(), ids.end(), 0);

  auto first = service.QueryBatch(ids);
  ASSERT_TRUE(first.ok());
  const uint64_t hits_after_first = service.cache()->hits();

  auto second = service.QueryBatch(ids);
  ASSERT_TRUE(second.ok());
  EXPECT_GT(service.cache()->hits(), hits_after_first);

  for (size_t i = 0; i < ids.size(); ++i) {
    ExpectSameAnswer((*second)[i], (*first)[i], i);
  }

  auto stats = service.Stats();
  EXPECT_EQ(stats.queries_served, 100u);
  EXPECT_EQ(stats.batches_served, 2u);
  EXPECT_GT(stats.cache_hit_rate, 0.0);
  EXPECT_GT(stats.p50_latency_seconds, 0.0);
  EXPECT_GE(stats.p99_latency_seconds, stats.p50_latency_seconds);
}

TEST(QueryServiceTest, QueryAsyncDeliversResult) {
  QueryService service(BuildMiner(15), {});
  auto expected = service.miner().Query(3);
  ASSERT_TRUE(expected.ok());

  auto future = service.QueryAsync(3);
  auto actual = future.get();
  ASSERT_TRUE(actual.ok());
  ExpectSameAnswer(*actual, *expected, 3);
}

TEST(QueryServiceTest, BatchPropagatesFirstErrorInIdOrder) {
  QueryService service(BuildMiner(16), {});
  const data::PointId n =
      static_cast<data::PointId>(service.miner().dataset().size());
  std::vector<data::PointId> ids = {0, 1, n + 5, 2, n + 9};
  auto batch = service.QueryBatch(ids);
  ASSERT_FALSE(batch.ok());
  EXPECT_TRUE(batch.status().IsOutOfRange());
}

TEST(QueryServiceTest, WorksWithLinearScanBackend) {
  QueryServiceConfig config;
  config.num_threads = 8;
  QueryService service(BuildMiner(17, core::IndexKind::kLinearScan), config);

  core::HosMiner serial = BuildMiner(17, core::IndexKind::kLinearScan);
  std::vector<data::PointId> ids = {0, 5, 10, 15, 20, 25, 30, 35};
  auto batch = service.QueryBatch(ids);
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto r = serial.Query(ids[i]);
    ASSERT_TRUE(r.ok());
    ExpectSameAnswer((*batch)[i], *r, i);
  }
}

TEST(QueryServiceTest, StatsAndMetricsJsonCountTheQuery) {
  QueryService service(BuildMiner(18), {});
  (void)service.Query(0);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.queries_served, 1u);
  EXPECT_GT(stats.p99_latency_seconds, 0.0);
  const std::string json = service.MetricsJson();
  EXPECT_NE(json.find("\"name\": \"service_queries_served\", \"type\": "
                      "\"counter\", \"value\": 1}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\": \"service_query_latency_seconds\", "
                      "\"type\": \"histogram\", \"count\": 1"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace hos::service
