// QueryService::EvictOlderThan — the wall-clock TTL convenience over
// EvictBefore. The service samples (monotonic time, dataset version) at
// construction and at every append commit; EvictOlderThan(seconds) evicts
// exactly the rows whose committing sample is older than the horizon.
// Granularity is the append batch: a row younger than `seconds` is never
// evicted, even when the rest of its window is.

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "src/data/generator.h"
#include "src/service/query_service.h"

namespace hos::service {
namespace {

constexpr int kDims = 5;

core::HosMiner BuildMiner(size_t rows) {
  Rng rng(33);
  data::Dataset dataset = data::GenerateUniform(rows, kDims, &rng);
  core::HosMinerConfig config;
  config.k = 3;
  config.threshold = 0.8;
  config.normalization = data::NormalizationKind::kNone;
  config.sample_size = 0;
  config.index = core::IndexKind::kXTree;
  auto miner = core::HosMiner::Build(std::move(dataset), config);
  EXPECT_TRUE(miner.ok()) << miner.status().ToString();
  return std::move(miner).value();
}

std::vector<std::vector<double>> RandomRows(size_t n, Rng* rng) {
  std::vector<std::vector<double>> rows(n, std::vector<double>(kDims));
  for (auto& row : rows) {
    for (double& cell : row) cell = rng->Uniform();
  }
  return rows;
}

TEST(TtlEvictTest, EvictsOnlyBatchesWhollyOlderThanTheHorizon) {
  QueryServiceConfig config;
  config.ingest.rebuild_delta_fraction = 0.0;  // isolate the TTL path
  QueryService service(BuildMiner(30), config);

  // Nothing is older than a generous horizon yet: no-op, nothing evicted.
  EXPECT_EQ(service.EvictOlderThan(30.0), 0u);
  EXPECT_EQ(service.Stats().rows_evicted, 0u);

  // Age the build-time rows past a short horizon, then append a fresh
  // batch. The horizon must split them: the 30 initial rows go, the 10
  // freshly appended survive (their commit sample is younger).
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Rng rng(4);
  ASSERT_TRUE(service.AppendBatch(RandomRows(10, &rng)).ok());
  EXPECT_EQ(service.EvictOlderThan(0.1), 30u);

  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.rows_evicted, 30u);
  EXPECT_EQ(stats.live_rows, 10u);
  EXPECT_TRUE(service.Query(0).status().IsNotFound());
  EXPECT_TRUE(service.Query(29).status().IsNotFound());
  EXPECT_TRUE(service.Query(30).ok());

  // Idempotent while no sample ages past the horizon.
  EXPECT_EQ(service.EvictOlderThan(0.1), 0u);

  // Once the append batch itself ages out, it goes too — the history kept
  // its sample across the earlier pruning.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(service.EvictOlderThan(0.1), 10u);
  stats = service.Stats();
  EXPECT_EQ(stats.live_rows, 0u);
  EXPECT_EQ(stats.rows_evicted, 40u);
  EXPECT_TRUE(service.Query(30).status().IsNotFound());

  // An empty window stays a clean no-op.
  EXPECT_EQ(service.EvictOlderThan(0.0), 0u);
}

TEST(TtlEvictTest, HugeHorizonNeverEvictsFreshRows) {
  QueryServiceConfig config;
  config.ingest.rebuild_delta_fraction = 0.0;
  QueryService service(BuildMiner(20), config);
  Rng rng(9);
  ASSERT_TRUE(service.AppendBatch(RandomRows(5, &rng)).ok());

  EXPECT_EQ(service.EvictOlderThan(3600.0), 0u);
  EXPECT_EQ(service.Stats().live_rows, 25u);
  EXPECT_TRUE(service.Query(0).ok());

  // Horizons too large for an integer duration, infinite or NaN match no
  // row (and must not overflow a float-to-integer conversion on the way).
  for (double seconds : {1e10, 1e300, std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(seconds);
    EXPECT_EQ(service.EvictOlderThan(seconds), 0u);
    EXPECT_EQ(service.Stats().live_rows, 25u);
  }
}

}  // namespace
}  // namespace hos::service
