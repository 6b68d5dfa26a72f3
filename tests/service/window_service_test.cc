// Serving-layer sliding-window behavior: clean NotFound (and the
// evicted_query_rejects counter) for deleted/evicted ids, the
// window_max_rows auto-eviction policy, TTL eviction by version watermark,
// and the maintenance task — drift-triggered relearning firing from the
// staleness signal with no manual RefreshLearning call, churn-triggered
// rebuilds, and both from one delete — while answers for already-committed
// versions never change.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/data/generator.h"
#include "src/service/query_service.h"

namespace hos::service {
namespace {

constexpr int kDims = 5;

core::HosMiner BuildMiner(size_t rows, int sample_size = 0) {
  Rng rng(33);
  data::Dataset dataset = data::GenerateUniform(rows, kDims, &rng);
  core::HosMinerConfig config;
  config.k = 3;
  config.threshold = 0.8;
  config.normalization = data::NormalizationKind::kNone;
  config.sample_size = sample_size;
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

TEST(WindowServiceTest, DeletedIdAnswersNotFoundAndCountsReject) {
  QueryServiceConfig config;
  config.num_threads = 2;
  QueryService service(BuildMiner(40), config);

  ASSERT_TRUE(service.Query(7).ok());
  const std::vector<data::PointId> doomed = {7};
  auto version = service.DeleteRows(doomed);
  ASSERT_TRUE(version.ok()) << version.status().ToString();

  auto result = service.Query(7);
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();
  EXPECT_EQ(result.status().message(),
            "point id 7 was deleted/evicted from the window");

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.rows_deleted, 1u);
  EXPECT_EQ(stats.evicted_query_rejects, 1u);
  EXPECT_EQ(stats.live_rows, 39u);
  EXPECT_EQ(stats.tombstone_rows, 1u);

  // Every read entry point rejects the deleted id with the same status and
  // counts one reject per rejected id: QueryAsync, and QueryBatch at widths
  // that cut blocks of one and blocks shared with live ids.
  auto async = service.QueryAsync(7).get();
  EXPECT_EQ(async.status(), result.status()) << async.status().ToString();
  EXPECT_EQ(service.Stats().evicted_query_rejects, 2u);
  const std::vector<data::PointId> ids = {6, 7, 8, 7};
  for (int width : {0, 1, 4}) {
    SCOPED_TRACE("batch_fusion_width=" + std::to_string(width));
    QueryServiceConfig batch_config = config;
    batch_config.batch_fusion_width = width;
    QueryService batch_service(BuildMiner(40), batch_config);
    ASSERT_TRUE(batch_service.DeleteRows(doomed).ok());
    auto batch = batch_service.QueryBatch(ids);
    EXPECT_EQ(batch.status(), result.status()) << batch.status().ToString();
    EXPECT_EQ(batch_service.Stats().evicted_query_rejects, 2u);
  }

  // Other rows keep answering.
  EXPECT_TRUE(service.Query(8).ok());

  // Deleting a dead row fails cleanly and changes nothing.
  auto again = service.DeleteRows(doomed);
  EXPECT_TRUE(again.status().IsNotFound());
  EXPECT_EQ(service.Stats().rows_deleted, 1u);
}

TEST(WindowServiceTest, WindowMaxRowsEvictsOldestAtAppend) {
  QueryServiceConfig config;
  config.num_threads = 2;
  config.ingest.window_max_rows = 48;
  config.ingest.rebuild_delta_fraction = 0.0;  // isolate the window policy
  QueryService service(BuildMiner(40), config);

  Rng rng(9);
  ASSERT_TRUE(service.AppendBatch(RandomRows(16, &rng)).ok());

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.live_rows, 48u);
  EXPECT_EQ(stats.rows_evicted, 8u);  // 56 live would exceed the window
  EXPECT_EQ(stats.rows_ingested, 16u);

  // The oldest rows slid out; the newest survived.
  EXPECT_TRUE(service.Query(0).status().IsNotFound());
  EXPECT_TRUE(service.Query(7).status().IsNotFound());
  EXPECT_TRUE(service.Query(8).ok());
  EXPECT_TRUE(service.Query(55).ok());

  // A batch below the limit evicts nothing further.
  ASSERT_TRUE(service.AppendBatch(RandomRows(0, &rng)).ok());
  EXPECT_EQ(service.Stats().rows_evicted, 8u);
}

TEST(WindowServiceTest, EvictBeforeUsesTheVersionWatermark) {
  QueryServiceConfig config;
  config.ingest.rebuild_delta_fraction = 0.0;
  QueryService service(BuildMiner(30), config);

  // Watermark taken now covers exactly the initial 30 rows.
  const uint64_t watermark = service.Stats().dataset_version + 1;
  Rng rng(4);
  ASSERT_TRUE(service.AppendBatch(RandomRows(10, &rng)).ok());

  EXPECT_EQ(service.EvictBefore(watermark), 30u);
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.rows_evicted, 30u);
  EXPECT_EQ(stats.live_rows, 10u);
  EXPECT_TRUE(service.Query(29).status().IsNotFound());
  EXPECT_TRUE(service.Query(30).ok());
  // Idempotent at the same watermark.
  EXPECT_EQ(service.EvictBefore(watermark), 0u);
}

TEST(WindowServiceTest, RelearnFiresFromStalenessWithoutManualRefresh) {
  QueryServiceConfig config;
  config.num_threads = 2;
  // Learning is on (sample_size > 0) so the relearn actually resamples.
  config.ingest.rebuild_delta_fraction = 0.0;  // isolate relearning
  config.ingest.relearn_staleness_threshold = 0.25;
  QueryService service(BuildMiner(40, /*sample_size=*/5), config);

  const uint64_t priors_v0 = service.miner().priors_version();

  // Pin a pre-drift answer at its committed version.
  auto before = service.Query(20);
  ASSERT_TRUE(before.ok());
  std::vector<uint64_t> masks_before;
  for (const Subspace& s : before->outlying_subspaces()) {
    masks_before.push_back(s.mask());
  }
  std::sort(masks_before.begin(), masks_before.end());

  // Drift: 6 appends + 6 deletes over 40 live rows = staleness 12/40 >
  // 0.25. No manual RefreshLearning anywhere in this test.
  Rng rng(14);
  ASSERT_TRUE(service.AppendBatch(RandomRows(6, &rng)).ok());
  service.WaitForRebuilds();
  EXPECT_EQ(service.Stats().relearns_completed, 0u);  // 6/46 < 0.25
  const std::vector<data::PointId> doomed = {0, 1, 2, 3, 4, 5};
  ASSERT_TRUE(service.DeleteRows(doomed).ok());
  service.WaitForRebuilds();

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_GE(stats.relearns_completed, 1u);
  EXPECT_GT(service.miner().priors_version(), priors_v0);
  EXPECT_FALSE(service.miner().learning_stale());
  EXPECT_LT(stats.learning_staleness,
            config.ingest.relearn_staleness_threshold);

  // Priors only steer search order: the same surviving point still gets
  // the same answer set after the relearn.
  auto after = service.Query(20);
  ASSERT_TRUE(after.ok());
  std::vector<uint64_t> masks_after;
  for (const Subspace& s : after->outlying_subspaces()) {
    masks_after.push_back(s.mask());
  }
  std::sort(masks_after.begin(), masks_after.end());
  EXPECT_EQ(masks_before, masks_after);
}

TEST(WindowServiceTest, ChurnFromDeletesTriggersRebuild) {
  QueryServiceConfig config;
  config.ingest.rebuild_delta_fraction = 0.10;
  config.ingest.min_delta_rows = 4;
  QueryService service(BuildMiner(40), config);

  // No appends at all: tombstones alone push churn over the policy
  // (8 unsealed tombstones / 32 live = 0.25 > 0.10).
  std::vector<data::PointId> doomed;
  for (data::PointId id = 0; id < 8; ++id) doomed.push_back(id);
  ASSERT_TRUE(service.DeleteRows(doomed).ok());
  service.WaitForRebuilds();

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_GE(stats.rebuilds_completed, 1u);
  // The rebuild folded the tombstones physically.
  EXPECT_EQ(service.miner().dataset().unsealed_tombstones(), 0u);
  EXPECT_DOUBLE_EQ(stats.churn_fraction, 0.0);
  EXPECT_TRUE(service.Query(0).status().IsNotFound());
  EXPECT_TRUE(service.Query(8).ok());
}

// One delete crosses both policies: the one maintenance task rebuilds, then
// relearns, and leaves neither signal behind.
TEST(WindowServiceTest, OneDeleteTriggersRebuildThenRelearn) {
  QueryServiceConfig config;
  config.num_threads = 2;
  config.ingest.rebuild_delta_fraction = 0.10;
  config.ingest.min_delta_rows = 4;
  config.ingest.relearn_staleness_threshold = 0.25;
  QueryService service(BuildMiner(40, /*sample_size=*/5), config);
  constexpr data::PointId kSurvivor = 20;

  // 10 tombstones over 30 live rows: churn and staleness both 1/3.
  std::vector<data::PointId> doomed;
  for (data::PointId id = 0; id < 10; ++id) doomed.push_back(id);
  // What a surviving id answers at the post-delete version before any
  // maintenance: the same delete on a miner that never rebuilds or
  // relearns.
  core::HosMiner unmaintained = BuildMiner(40, /*sample_size=*/5);
  ASSERT_TRUE(unmaintained.Delete(doomed).ok());
  auto before = unmaintained.Query(kSurvivor);
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->outlying_subspaces().empty());

  ASSERT_TRUE(service.DeleteRows(doomed).ok());
  service.WaitForRebuilds();

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_GE(stats.rebuilds_completed, 1u);
  EXPECT_GE(stats.relearns_completed, 1u);
  EXPECT_DOUBLE_EQ(stats.churn_fraction, 0.0);
  EXPECT_DOUBLE_EQ(stats.learning_staleness, 0.0);

  auto after = service.Query(kSurvivor);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->outlying_subspaces(), before->outlying_subspaces());
}

}  // namespace
}  // namespace hos::service
