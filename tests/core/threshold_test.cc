#include "src/core/threshold.h"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "src/core/hos_miner.h"
#include "src/data/generator.h"
#include "src/knn/linear_scan.h"

namespace hos::core {
namespace {

TEST(ThresholdTest, RejectsEmptyDataset) {
  data::Dataset ds(2);
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  Rng rng(1);
  EXPECT_TRUE(EstimateThreshold(ds, engine, {}, &rng)
                  .status()
                  .IsFailedPrecondition());
}

TEST(ThresholdTest, RejectsBadOptions) {
  Rng rng(1);
  data::Dataset ds = data::GenerateUniform(20, 2, &rng);
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  ThresholdOptions options;
  options.percentile = 0.0;
  EXPECT_TRUE(
      EstimateThreshold(ds, engine, options, &rng).status().IsInvalidArgument());
  options.percentile = 1.5;
  EXPECT_FALSE(EstimateThreshold(ds, engine, options, &rng).ok());
  // NaN fails every comparison, so it must be refused before it reaches
  // the rank computation's cast to an integer.
  options.percentile = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(
      EstimateThreshold(ds, engine, options, &rng).status().IsInvalidArgument());
  options.percentile = 0.9;
  options.sample_size = 0;
  EXPECT_FALSE(EstimateThreshold(ds, engine, options, &rng).ok());
}

TEST(ThresholdTest, PercentileOrdering) {
  Rng rng(2);
  data::Dataset ds = data::GenerateUniform(300, 4, &rng);
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  ThresholdOptions options;
  options.sample_size = 300;
  options.percentile = 0.5;
  auto median = EstimateThreshold(ds, engine, options, &rng);
  options.percentile = 0.95;
  auto high = EstimateThreshold(ds, engine, options, &rng);
  ASSERT_TRUE(median.ok() && high.ok());
  EXPECT_GT(*high, *median);
  EXPECT_GT(*median, 0.0);
}

TEST(ThresholdTest, PercentileOneIsMaximum) {
  Rng rng(3);
  data::Dataset ds = data::GenerateUniform(50, 3, &rng);
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  ThresholdOptions options;
  options.sample_size = 50;
  options.percentile = 1.0;
  auto t = EstimateThreshold(ds, engine, options, &rng);
  ASSERT_TRUE(t.ok());
  // No sampled OD exceeds the 100th percentile.
  const Subspace full = Subspace::Full(3);
  for (data::PointId i = 0; i < ds.size(); ++i) {
    knn::KnnQuery q;
    auto row = ds.Row(i);
    q.point = row;
    q.subspace = full;
    q.k = options.k;
    q.exclude = i;
    EXPECT_LE(knn::OutlyingDegree(engine, q), *t + 1e-12);
  }
}

TEST(ThresholdTest, PlantedOutlierExceedsEstimatedThreshold) {
  Rng rng(4);
  data::SubspaceOutlierSpec spec;
  spec.num_points = 400;
  spec.num_dims = 5;
  spec.planted_subspaces = {Subspace::FromOneBased({1, 2})};
  auto generated = data::GenerateSubspaceOutliers(spec, &rng);
  ASSERT_TRUE(generated.ok());
  knn::LinearScanKnn engine(generated->dataset, knn::MetricKind::kL2);
  ThresholdOptions options;
  options.percentile = 0.95;
  options.sample_size = 200;
  auto t = EstimateThreshold(generated->dataset, engine, options, &rng);
  ASSERT_TRUE(t.ok());
  // The planted point's OD in its subspace should clear the threshold.
  const data::PointId planted = generated->outliers[0].id;
  knn::KnnQuery q;
  auto row = generated->dataset.Row(planted);
  q.point = row;
  q.subspace = generated->outliers[0].subspace;
  q.k = options.k;
  q.exclude = planted;
  EXPECT_GT(knn::OutlyingDegree(engine, q), *t);
}

// Tombstoned rows are no survivor: with dead rows scattered so that no
// storage chunk is wholly dead (nothing reclaimed), their ODs would still
// be computable — but T must be exactly the estimate over the survivors
// alone, with the same rng draws.
TEST(ThresholdTest, SamplesOnlyLiveRows) {
  Rng data_rng(5);
  data::Dataset ds = data::GenerateUniform(300, 4, &data_rng);
  std::vector<data::PointId> doomed;
  for (data::PointId id = 0; id < 300; id += 3) doomed.push_back(id);
  ASSERT_TRUE(ds.DeleteRows(doomed).ok());
  data::Dataset survivors(4);
  for (data::PointId id = 0; id < ds.size(); ++id) {
    if (ds.IsLive(id)) survivors.Append(ds.Row(id));
  }

  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  knn::LinearScanKnn fresh_engine(survivors, knn::MetricKind::kL2);
  ThresholdOptions options;
  options.sample_size = 120;
  Rng rng(9);
  Rng fresh_rng(9);
  auto t = EstimateThreshold(ds, engine, options, &rng);
  auto fresh_t =
      EstimateThreshold(survivors, fresh_engine, options, &fresh_rng);
  ASSERT_TRUE(t.ok() && fresh_t.ok());
  EXPECT_EQ(*t, *fresh_t);
}

// An auto-threshold build over a dataset whose first half is tombstoned:
// the build's commit reclaims the wholly dead chunks before T is
// estimated, so a sample drawn over every id would read freed rows. T must
// instead equal, bitwise, a build on the survivors copied into a fresh
// dataset.
TEST(ThresholdTest, AutoThresholdBuildIgnoresReclaimedRows) {
  Rng rng(5);
  data::Dataset ds = data::GenerateUniform(600, 4, &rng);
  std::vector<data::PointId> doomed(300);
  std::iota(doomed.begin(), doomed.end(), data::PointId{0});
  ASSERT_TRUE(ds.DeleteRows(doomed).ok());
  data::Dataset survivors(4);
  for (data::PointId id = 0; id < ds.size(); ++id) {
    if (ds.IsLive(id)) survivors.Append(ds.Row(id));
  }

  HosMinerConfig config;  // threshold 0: estimated at Build
  auto windowed = HosMiner::Build(std::move(ds), config);
  ASSERT_TRUE(windowed.ok()) << windowed.status().ToString();
  auto fresh = HosMiner::Build(std::move(survivors), config);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(windowed->threshold(), fresh->threshold());
}

// Identical rows give every sampled OD = 0, and T = 0 would make OD >= T
// hold in every subspace of every point. The estimate is refused instead,
// and an auto-threshold build reports it.
TEST(ThresholdTest, RefusesANonPositiveEstimate) {
  data::Dataset ds(3);
  for (int i = 0; i < 20; ++i) ds.Append(std::vector<double>{0.5, 0.5, 0.5});
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  Rng rng(6);
  EXPECT_TRUE(EstimateThreshold(ds, engine, {}, &rng)
                  .status()
                  .IsFailedPrecondition());

  HosMinerConfig config;
  config.normalization = data::NormalizationKind::kNone;
  auto miner = HosMiner::Build(std::move(ds), config);
  EXPECT_TRUE(miner.status().IsFailedPrecondition())
      << miner.status().ToString();
}

}  // namespace
}  // namespace hos::core
