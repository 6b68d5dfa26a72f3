// HosMiner streaming-ingest API: Append semantics (normalization with the
// Build-time fit, version bookkeeping, lazy learner invalidation), the
// two-phase rebuild, and error paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "src/core/hos_miner.h"
#include "src/data/generator.h"
#include "src/service/query_service.h"

namespace hos::core {
namespace {

constexpr int kDims = 5;

HosMiner BuildMiner(uint64_t seed, size_t rows = 120,
                    data::NormalizationKind normalization =
                        data::NormalizationKind::kMinMax) {
  Rng rng(seed);
  data::Dataset dataset = data::GenerateUniform(rows, kDims, &rng);
  HosMinerConfig config;
  config.k = 3;
  config.threshold = 0.8;
  config.normalization = normalization;
  auto miner = HosMiner::Build(std::move(dataset), config);
  EXPECT_TRUE(miner.ok()) << miner.status().ToString();
  return std::move(miner).value();
}

TEST(StreamingMinerTest, AppendReturnsMonotonicVersionsAndMarksLearning) {
  HosMiner miner = BuildMiner(1);
  const uint64_t v0 = miner.version();
  EXPECT_FALSE(miner.learning_stale());
  EXPECT_EQ(miner.delta_rows(), 0u);

  auto v1 = miner.Append({{0.5, 0.5, 0.5, 0.5, 0.5}});
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(*v1, v0 + 1);
  EXPECT_TRUE(miner.learning_stale());
  EXPECT_EQ(miner.delta_rows(), 1u);

  auto v2 = miner.Append({{0.1, 0.2, 0.3, 0.4, 0.5},
                          {0.9, 0.8, 0.7, 0.6, 0.5}});
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, v0 + 3);
  EXPECT_EQ(miner.delta_rows(), 3u);
  EXPECT_GT(miner.delta_fraction(), 0.0);

  // Empty append: version unchanged, no-op.
  auto v3 = miner.Append({});
  ASSERT_TRUE(v3.ok());
  EXPECT_EQ(*v3, *v2);

  miner.RefreshLearning();
  EXPECT_FALSE(miner.learning_stale());
}

TEST(StreamingMinerTest, AppendNormalizesWithTheBuildTimeFit) {
  // Min-max normalization fitted at Build maps the raw range seen then to
  // [0, 1]; an appended raw point at the fitted maximum must land at 1.0
  // in every dimension — i.e. the transform is the *old* fit, not a refit.
  Rng rng(2);
  data::Dataset dataset(kDims);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> row(kDims);
    for (double& cell : row) cell = rng.Uniform(0.0, 2.0);
    dataset.Append(row);
  }
  std::vector<double> raw_max(kDims);
  for (int d = 0; d < kDims; ++d) {
    raw_max[d] = data::ComputeColumnStats(dataset)[d].max;
  }
  HosMinerConfig config;
  config.k = 3;
  config.threshold = 0.8;
  auto miner = HosMiner::Build(std::move(dataset), config);
  ASSERT_TRUE(miner.ok());

  ASSERT_TRUE(miner->Append({raw_max}).ok());
  const data::PointId appended =
      static_cast<data::PointId>(miner->dataset().size() - 1);
  for (int d = 0; d < kDims; ++d) {
    EXPECT_DOUBLE_EQ(miner->dataset().At(appended, d), 1.0) << "dim " << d;
  }
}

TEST(StreamingMinerTest, AppendValidatesRowWidth) {
  HosMiner miner = BuildMiner(3);
  const uint64_t v0 = miner.version();
  auto bad = miner.Append({{1.0, 2.0}});
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_EQ(miner.version(), v0);
  EXPECT_FALSE(miner.learning_stale());
}

TEST(StreamingMinerTest, AppendRejectsNonFiniteRows) {
  HosMiner miner = BuildMiner(3);
  const uint64_t v0 = miner.version();
  const size_t rows = miner.dataset().size();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {nan, inf, -inf}) {
    auto rejected = miner.Append({{0.5, 0.5, 0.5, 0.5, 0.5},
                                  {0.5, 0.5, 0.5, bad, 0.5}});
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_TRUE(rejected.status().IsInvalidArgument());
    EXPECT_NE(rejected.status().ToString().find(
                  "appended row 1, dimension 3 is"),
              std::string::npos)
        << rejected.status().ToString();
    // All-or-nothing: the valid first row did not go in either.
    EXPECT_EQ(miner.version(), v0);
    EXPECT_EQ(miner.dataset().size(), rows);
    EXPECT_FALSE(miner.learning_stale());
  }
}

TEST(StreamingMinerTest, AppendRejectsRowsThatNormalizeToInf) {
  // Column 2 is constant at build, so its fitted scale is the 1e-12
  // floor: a finite appended value far outside it normalizes to +Inf.
  Rng rng(11);
  data::Dataset dataset = data::GenerateUniform(120, kDims, &rng);
  for (data::PointId id = 0; id < dataset.size(); ++id) {
    dataset.Set(id, 2, 0.25);
  }
  HosMinerConfig config;
  config.k = 3;
  config.threshold = 0.8;
  auto miner = HosMiner::Build(std::move(dataset), config);
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();
  const uint64_t v0 = miner->version();

  auto rejected = miner->PrepareAppend({{0.5, 0.5, 1e300, 0.5, 0.5}});
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  EXPECT_NE(rejected.status().ToString().find(
                "appended row 0, dimension 2 normalizes to"),
            std::string::npos)
      << rejected.status().ToString();
  EXPECT_FALSE(miner->Append({{0.5, 0.5, -1e300, 0.5, 0.5}}).ok());
  EXPECT_EQ(miner->version(), v0);
  // A value inside the fitted range still appends.
  EXPECT_TRUE(miner->Append({{0.5, 0.5, 0.25, 0.5, 0.5}}).ok());
}

TEST(StreamingMinerTest, ServiceAppendBatchRejectsNonFiniteRows) {
  service::QueryService service(BuildMiner(12));
  const uint64_t v0 = service.miner().version();
  const size_t rows = service.miner().dataset().size();
  auto rejected = service.AppendBatch(
      {{0.5, 0.5, 0.5, 0.5, std::numeric_limits<double>::quiet_NaN()}});
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  EXPECT_EQ(service.miner().version(), v0);
  EXPECT_EQ(service.miner().dataset().size(), rows);
  EXPECT_TRUE(service.Query(0).ok());
}

TEST(StreamingMinerTest, QueriesReportTheVersionTheyRanAt) {
  HosMiner miner = BuildMiner(4);
  auto before = miner.Query(0);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->dataset_version, miner.version());

  ASSERT_TRUE(miner.Append({{0.5, 0.5, 0.5, 0.5, 0.5}}).ok());
  auto after = miner.Query(0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->dataset_version, miner.version());
  EXPECT_EQ(after->dataset_version, before->dataset_version + 1);

  // Appended rows are themselves queryable immediately.
  auto delta_query =
      miner.Query(static_cast<data::PointId>(miner.dataset().size() - 1));
  EXPECT_TRUE(delta_query.ok());
}

TEST(StreamingMinerTest, TwoPhaseRebuildFoldsTheDelta) {
  HosMiner miner = BuildMiner(5);
  ASSERT_TRUE(miner.Append({{0.4, 0.4, 0.4, 0.4, 0.4},
                            {0.6, 0.6, 0.6, 0.6, 0.6}}).ok());
  EXPECT_EQ(miner.delta_rows(), 2u);
  EXPECT_LT(miner.xtree()->base_rows(), miner.dataset().size());

  auto artifacts = miner.PrepareRebuild();
  ASSERT_TRUE(artifacts.ok());
  EXPECT_EQ(artifacts->rows, miner.dataset().size());

  // Queries between prepare and commit still work (prepare is read-only).
  ASSERT_TRUE(miner.Query(0).ok());

  miner.CommitRebuild(std::move(artifacts).value());
  EXPECT_EQ(miner.delta_rows(), 0u);
  EXPECT_EQ(miner.xtree()->base_rows(), miner.dataset().size());
  ASSERT_TRUE(miner.Query(0).ok());
}

TEST(StreamingMinerTest, RebuildKeepsThresholdAndAnswers) {
  HosMiner miner = BuildMiner(6);
  const double threshold = miner.threshold();
  ASSERT_TRUE(miner.Append({{0.3, 0.7, 0.3, 0.7, 0.3}}).ok());

  auto before = miner.Query(7);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(miner.Rebuild().ok());
  EXPECT_EQ(miner.threshold(), threshold);

  auto after = miner.Query(7);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->outcome.minimal_outlying_subspaces,
            after->outcome.minimal_outlying_subspaces);
  EXPECT_EQ(before->outcome.outlier_fraction, after->outcome.outlier_fraction);
}

TEST(StreamingMinerTest, RebuildWorksForEveryIndexKind) {
  for (IndexKind index : {IndexKind::kLinearScan, IndexKind::kXTree}) {
    SCOPED_TRACE(static_cast<int>(index));
    Rng rng(7);
    data::Dataset dataset = data::GenerateUniform(80, kDims, &rng);
    HosMinerConfig config;
    config.k = 3;
    config.threshold = 0.8;
    config.index = index;
    auto miner = HosMiner::Build(std::move(dataset), config);
    ASSERT_TRUE(miner.ok());
    ASSERT_TRUE(miner->Append({{0.2, 0.4, 0.6, 0.8, 1.0}}).ok());
    ASSERT_TRUE(miner->Rebuild().ok());
    EXPECT_EQ(miner->delta_rows(), 0u);
    EXPECT_TRUE(miner->Query(0).ok());
    if (index == IndexKind::kXTree) {
      ASSERT_NE(miner->xtree(), nullptr);
      EXPECT_TRUE(miner->xtree()->CheckInvariants().ok());
    }
  }
}

TEST(StreamingMinerTest, DeleteEvictFeedTheStalenessClock) {
  HosMiner miner = BuildMiner(8, /*rows=*/100);
  EXPECT_EQ(miner.priors_version(), miner.version());
  EXPECT_DOUBLE_EQ(miner.learning_staleness(), 0.0);
  EXPECT_EQ(miner.live_rows(), 100u);

  const std::vector<data::PointId> doomed = {4, 9};
  auto version = miner.Delete(doomed);
  ASSERT_TRUE(version.ok()) << version.status().ToString();
  EXPECT_TRUE(miner.learning_stale());
  EXPECT_EQ(miner.live_rows(), 98u);
  // 2 mutations over 98 live rows.
  EXPECT_DOUBLE_EQ(miner.learning_staleness(), 2.0 / 98.0);

  EXPECT_EQ(miner.EvictOldest(3), 3u);
  EXPECT_EQ(miner.live_rows(), 95u);
  EXPECT_DOUBLE_EQ(miner.learning_staleness(), 5.0 / 95.0);
  EXPECT_GT(miner.churn_fraction(), 0.0);

  auto dead = miner.Query(4);
  EXPECT_TRUE(dead.status().IsNotFound()) << dead.status().ToString();
  auto live = miner.Query(50);
  EXPECT_TRUE(live.ok()) << live.status().ToString();
}

// Build requires k < live rows, but deletes can shrink the window below
// that. With only k rows live, no row has k neighbours besides itself: the
// query paths say so instead of summing fewer than k distances, and the
// screening paths return no points. One appended row restores the window,
// and the answers are then a fresh build's on the survivors.
TEST(StreamingMinerTest, WindowOfKLiveRowsRefusesQueriesUntilItGrows) {
  HosMiner miner = BuildMiner(13, /*rows=*/40, data::NormalizationKind::kNone);
  const std::vector<data::PointId> kept = {5, 17, 33};
  ASSERT_EQ(kept.size(), static_cast<size_t>(miner.config().k));
  std::vector<data::PointId> doomed;
  for (data::PointId id = 0; id < 40; ++id) {
    if (std::find(kept.begin(), kept.end(), id) == kept.end()) {
      doomed.push_back(id);
    }
  }
  ASSERT_TRUE(miner.Delete(doomed).ok());
  ASSERT_EQ(miner.live_rows(), kept.size());

  auto refused = miner.Query(kept[0]);
  ASSERT_TRUE(refused.status().IsFailedPrecondition())
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("k = 3"), std::string::npos);
  EXPECT_NE(refused.status().message().find("3 rows are live"),
            std::string::npos);
  const std::vector<data::PointId> batch = {kept[1], 0};
  auto fused = miner.QueryBatchFused(batch, QueryOptions{});
  ASSERT_EQ(fused.size(), batch.size());
  EXPECT_TRUE(fused[0].status().IsFailedPrecondition());
  EXPECT_TRUE(fused[1].status().IsNotFound());
  EXPECT_TRUE(miner.ScreenOutliers().empty());
  EXPECT_TRUE(miner.TopOutliers(5).empty());
  EXPECT_TRUE(miner.TopOutliersWithSubspaces(5).empty());
  // An external point still has k live neighbours.
  EXPECT_TRUE(miner.QueryPoint({0.5, 0.5, 0.5, 0.5, 0.5}).ok());

  ASSERT_TRUE(miner.Append({{0.1, 0.9, 0.3, 0.7, 0.5}}).ok());
  std::vector<data::PointId> live;
  data::Dataset survivors(kDims);
  for (data::PointId id = 0; id < miner.dataset().size(); ++id) {
    if (!miner.dataset().IsLive(id)) continue;
    live.push_back(id);
    survivors.Append(miner.dataset().Row(id));
  }
  auto fresh = HosMiner::Build(std::move(survivors), miner.config());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  for (size_t i = 0; i < live.size(); ++i) {
    auto got = miner.Query(live[i]);
    auto want = fresh->Query(static_cast<data::PointId>(i));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(got->outcome.minimal_outlying_subspaces,
              want->outcome.minimal_outlying_subspaces)
        << "row " << live[i];
    EXPECT_EQ(got->outcome.outlier_fraction, want->outcome.outlier_fraction)
        << "row " << live[i];
  }
}

// Below k live rows even an external point lacks k neighbours, and the
// serving layer passes the miner's refusal through.
TEST(StreamingMinerTest, WindowBelowKRefusesExternalPointsAndServiceQueries) {
  service::QueryService service(
      BuildMiner(14, /*rows=*/30, data::NormalizationKind::kNone));
  std::vector<data::PointId> doomed;
  for (data::PointId id = 2; id < 30; ++id) doomed.push_back(id);
  ASSERT_TRUE(service.DeleteRows(doomed).ok());
  ASSERT_EQ(service.miner().live_rows(), 2u);

  EXPECT_TRUE(service.miner()
                  .QueryPoint({0.5, 0.5, 0.5, 0.5, 0.5})
                  .status()
                  .IsFailedPrecondition());
  auto served = service.Query(0);
  EXPECT_TRUE(served.status().IsFailedPrecondition())
      << served.status().ToString();
  const std::vector<data::PointId> ids = {0, 1};
  EXPECT_TRUE(service.QueryBatch(ids).status().IsFailedPrecondition());
}

TEST(StreamingMinerTest, TwoPhaseLearningCommitsAtomicallyAndResetsClock) {
  HosMiner miner = BuildMiner(9, /*rows=*/100);
  ASSERT_TRUE(miner.Delete(std::vector<data::PointId>{0, 1, 2}).ok());
  ASSERT_TRUE(miner.Append({{0.5, 0.5, 0.5, 0.5, 0.5}}).ok());
  ASSERT_TRUE(miner.learning_stale());
  const uint64_t priors_v0 = miner.priors_version();

  // Prepare is read-only: queries keep answering with the old priors and
  // the staleness clock keeps ticking.
  HosMiner::LearningArtifacts artifacts = miner.PrepareLearning();
  EXPECT_EQ(artifacts.version, miner.version());
  ASSERT_TRUE(miner.Query(50).ok());
  EXPECT_TRUE(miner.learning_stale());
  EXPECT_EQ(miner.priors_version(), priors_v0);

  auto before = miner.Query(60);
  ASSERT_TRUE(before.ok());

  miner.CommitLearning(std::move(artifacts));
  EXPECT_FALSE(miner.learning_stale());
  EXPECT_GT(miner.priors_version(), priors_v0);
  EXPECT_DOUBLE_EQ(miner.learning_staleness(), 0.0);

  // Priors only steer the search order — never the answer set.
  auto after = miner.Query(60);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->outcome.minimal_outlying_subspaces,
            after->outcome.minimal_outlying_subspaces);

  // The refreshed sample contains live rows only.
  for (data::PointId id : miner.learning_report().sample_ids) {
    EXPECT_TRUE(miner.dataset().IsLive(id)) << "sampled dead row " << id;
  }
}

// A mutation that commits between PrepareLearning and CommitLearning is
// drift the new priors never saw: the commit must leave the miner stale,
// or a due relearn would wait for the next mutation.
TEST(StreamingMinerTest, CommitAfterARacingAppendStaysStale) {
  HosMiner miner = BuildMiner(12, /*rows=*/100);
  HosMiner::LearningArtifacts artifacts = miner.PrepareLearning();
  ASSERT_TRUE(miner.Append({{0.5, 0.5, 0.5, 0.5, 0.5}}).ok());
  miner.CommitLearning(std::move(artifacts));
  EXPECT_TRUE(miner.learning_stale());
  EXPECT_GT(miner.learning_staleness(), 0.0);
  EXPECT_EQ(miner.priors_version() + 1, miner.version());
}

TEST(StreamingMinerTest, RebuildFoldsTombstonesAndReclaimsChunks) {
  // Enough rows that the first storage chunk can become wholly dead.
  HosMiner miner = BuildMiner(10, /*rows=*/600,
                              data::NormalizationKind::kNone);
  EXPECT_EQ(miner.EvictOldest(data::Dataset::kChunkRows),
            data::Dataset::kChunkRows);
  EXPECT_GT(miner.dataset().unsealed_tombstones(), 0u);

  ASSERT_TRUE(miner.Rebuild().ok());
  EXPECT_EQ(miner.dataset().unsealed_tombstones(), 0u);
  EXPECT_DOUBLE_EQ(miner.churn_fraction(), 0.0);
  // The wholly dead first chunk was reclaimed at commit.
  EXPECT_LT(miner.dataset().allocated_chunks(),
            (600 + data::Dataset::kChunkRows - 1) / data::Dataset::kChunkRows);

  // Evicted rows stay NotFound after the physical fold; survivors answer.
  EXPECT_TRUE(miner.Query(0).status().IsNotFound());
  EXPECT_TRUE(
      miner.Query(static_cast<data::PointId>(data::Dataset::kChunkRows)).ok());
}

}  // namespace
}  // namespace hos::core
