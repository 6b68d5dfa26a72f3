#include "src/core/hos_miner.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "src/data/generator.h"

namespace hos::core {
namespace {

data::GeneratedData MakePlanted(uint64_t seed, size_t n = 400, int d = 6) {
  Rng rng(seed);
  data::SubspaceOutlierSpec spec;
  spec.num_points = n;
  spec.num_dims = d;
  spec.planted_subspaces = {Subspace::FromOneBased({1, 2})};
  // Push the planted point clearly past the auto threshold (the 95th
  // percentile of full-space OD): OD in the planted subspace ~ k * 0.5.
  spec.displacement = 0.5;
  auto generated = data::GenerateSubspaceOutliers(spec, &rng);
  EXPECT_TRUE(generated.ok());
  return std::move(generated).value();
}

TEST(HosMinerBuildTest, RejectsBadInputs) {
  data::Dataset empty(3);
  EXPECT_TRUE(HosMiner::Build(std::move(empty), {}).status()
                  .IsInvalidArgument());

  Rng rng(1);
  data::Dataset small = data::GenerateUniform(10, 3, &rng);
  HosMinerConfig config;
  config.k = 10;  // k >= dataset size
  EXPECT_FALSE(HosMiner::Build(std::move(small), config).ok());

  data::Dataset tiny = data::GenerateUniform(10, 3, &rng);
  config = HosMinerConfig{};
  config.k = 0;
  EXPECT_FALSE(HosMiner::Build(std::move(tiny), config).ok());
}

bool Mentions(const Status& status, const std::string& text) {
  return status.ToString().find(text) != std::string::npos;
}

TEST(HosMinerBuildTest, RejectsNonFiniteCoordinates) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    Rng rng(2);
    data::Dataset ds = data::GenerateUniform(40, 4, &rng);
    ds.Set(7, 2, bad);
    auto rejected = HosMiner::Build(std::move(ds), {});
    ASSERT_FALSE(rejected.ok()) << bad;
    EXPECT_TRUE(rejected.status().IsInvalidArgument()) << bad;
    EXPECT_TRUE(Mentions(rejected.status(), "row 7, dimension 2 is"))
        << rejected.status().ToString();
  }
}

TEST(HosMinerBuildTest, RejectsRowsWhoseNormalizationOverflows) {
  // Every raw value is finite, but the column's min-max range overflows
  // to +Inf, so normalizing yields NaN (row 0: (-1e308 - min) / Inf is 0,
  // row 1: Inf / Inf is NaN).
  Rng rng(3);
  data::Dataset ds = data::GenerateUniform(40, 3, &rng);
  ds.Set(0, 1, -1e308);
  ds.Set(1, 1, 1e308);
  auto rejected = HosMiner::Build(std::move(ds), {});
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  EXPECT_TRUE(Mentions(rejected.status(), "row 1, dimension 1 normalizes to"))
      << rejected.status().ToString();
}

TEST(HosMinerBuildTest, RejectsAZScoreColumnWhoseSpreadOverflows) {
  // ±1e200 squares past the largest double, so does 1e155; at 1e155 the
  // mean stays finite and an infinite scale would map the column to 0.
  for (const bool alternating : {true, false}) {
    Rng rng(4);
    data::Dataset ds = data::GenerateUniform(40, 3, &rng);
    for (data::PointId id = 0; id < ds.size(); ++id) {
      if (alternating) ds.Set(id, 0, id % 2 == 0 ? 1e200 : -1e200);
    }
    if (!alternating) ds.Set(7, 0, 1e155);
    HosMinerConfig config;
    config.normalization = data::NormalizationKind::kZScore;
    auto rejected = HosMiner::Build(std::move(ds), config);
    ASSERT_FALSE(rejected.ok()) << alternating;
    EXPECT_TRUE(rejected.status().IsInvalidArgument()) << alternating;
    EXPECT_TRUE(Mentions(rejected.status(), "dimension 0"))
        << rejected.status().ToString();
  }
}

TEST(HosMinerBuildTest, RejectsTooManyDims) {
  // The hard cap is now lattice::kMaxLatticeDims (58), not the dense
  // backend's 22: d = 23 builds fine (queries auto-select the sparse
  // lattice), d = 59 is rejected with the range in the message.
  const int too_many = lattice::kMaxLatticeDims + 1;
  data::Dataset wide(too_many);
  wide.Append(std::vector<double>(too_many, 0.0));
  auto rejected = HosMiner::Build(std::move(wide), {});
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsInvalidArgument());
  EXPECT_NE(rejected.status().ToString().find(
                "1.." + std::to_string(lattice::kMaxLatticeDims)),
            std::string::npos);
}

TEST(HosMinerBuildTest, AcceptsDimsPastTheDenseCap) {
  // Regression: d = 23 used to be refused outright; with the sparse
  // lattice backend Build succeeds (learning disabled — at this width each
  // sample search is a full sparse lattice walk).
  const int d = lattice::kDenseMaxDims + 1;
  Rng rng(99);
  data::Dataset ds = data::GenerateUniform(40, d, &rng);
  HosMinerConfig config;
  config.k = 3;
  config.threshold = 5.0;
  config.sample_size = 0;
  config.index = IndexKind::kLinearScan;
  auto miner = HosMiner::Build(std::move(ds), config);
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();
  EXPECT_EQ(miner->num_dims(), d);
}

// A dataset handed to Build after a window slid over it: its first chunk
// is all dead, sealed and reclaimed. Build must not touch that storage,
// and the miner must answer for every survivor exactly like a miner built
// on the survivors alone, at the same T.
TEST(HosMinerBuildTest, BuildsOnAReclaimedDatasetLikeOnItsSurvivors) {
  Rng rng(7);
  data::Dataset dataset = data::GenerateUniform(600, 3, &rng);
  std::vector<data::PointId> dead;
  for (data::PointId id = 0; id < data::Dataset::kChunkRows; ++id) {
    dead.push_back(id);
  }
  ASSERT_TRUE(dataset.DeleteRows(dead).ok());
  dataset.SealBase();
  ASSERT_EQ(dataset.ReclaimDeadChunks(), 1u);

  data::Dataset survivors(3);
  std::vector<data::PointId> live_ids;
  for (data::PointId id = 0; id < dataset.size(); ++id) {
    if (!dataset.IsLive(id)) continue;
    live_ids.push_back(id);
    survivors.Append(dataset.Row(id));
  }
  auto reference = HosMiner::Build(std::move(survivors), {});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  HosMinerConfig config;
  config.threshold = reference->threshold();
  auto miner = HosMiner::Build(std::move(dataset), config);
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();

  for (size_t i = 0; i < live_ids.size(); ++i) {
    auto expected = reference->Query(static_cast<data::PointId>(i));
    auto actual = miner->Query(live_ids[i]);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    EXPECT_EQ(actual->outlying_subspaces(), expected->outlying_subspaces())
        << "id " << live_ids[i];
    EXPECT_EQ(actual->outcome.outlier_fraction,
              expected->outcome.outlier_fraction)
        << "id " << live_ids[i];
  }
}

TEST(HosMinerBuildTest, AutoThresholdIsPositive) {
  auto generated = MakePlanted(2);
  auto miner = HosMiner::Build(std::move(generated.dataset), {});
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();
  EXPECT_GT(miner->threshold(), 0.0);
  EXPECT_EQ(miner->num_dims(), 6);
  EXPECT_NE(miner->xtree(), nullptr);
}

// A NaN threshold must not fall through to estimation, an infinite one
// cannot be written as JSON, and a NaN percentile must not reach the
// estimate's rank arithmetic.
TEST(HosMinerBuildTest, RejectsNonFiniteThresholdInputs) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double threshold : {kNaN, kInf, -kInf}) {
    HosMinerConfig config;
    config.threshold = threshold;
    auto miner = HosMiner::Build(MakePlanted(3).dataset, config);
    EXPECT_TRUE(miner.status().IsInvalidArgument()) << threshold;
  }
  HosMinerConfig config;
  config.threshold_percentile = kNaN;
  auto miner = HosMiner::Build(MakePlanted(3).dataset, config);
  EXPECT_TRUE(miner.status().IsInvalidArgument());
  EXPECT_TRUE(Mentions(miner.status(), "percentile"))
      << miner.status().ToString();
}

TEST(HosMinerBuildTest, ExplicitThresholdRespected) {
  auto generated = MakePlanted(3);
  HosMinerConfig config;
  config.threshold = 123.0;
  auto miner = HosMiner::Build(std::move(generated.dataset), config);
  ASSERT_TRUE(miner.ok());
  EXPECT_DOUBLE_EQ(miner->threshold(), 123.0);
}

TEST(HosMinerQueryTest, RecoversPlantedSubspace) {
  auto generated = MakePlanted(4);
  const data::PointId planted = generated.outliers[0].id;
  const Subspace truth = generated.outliers[0].subspace;

  auto miner = HosMiner::Build(std::move(generated.dataset), {});
  ASSERT_TRUE(miner.ok());
  auto result = miner->Query(planted);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->outlying_subspaces().empty());
  // The planted subspace must be among the minimal answers (typically the
  // only one).
  bool found = false;
  for (const Subspace& s : result->outlying_subspaces()) {
    found |= (s == truth);
  }
  EXPECT_TRUE(found);
}

TEST(HosMinerQueryTest, BackgroundPointIsNotOutlier) {
  auto generated = MakePlanted(5);
  auto miner = HosMiner::Build(std::move(generated.dataset), {});
  ASSERT_TRUE(miner.ok());
  // Probe several background points; the overwhelming majority must have no
  // outlying subspace (threshold is the 95th percentile, so a few can).
  int outliers = 0;
  for (data::PointId id = 0; id < 20; ++id) {
    auto result = miner->Query(id);
    ASSERT_TRUE(result.ok());
    outliers += result->is_outlier_anywhere();
  }
  EXPECT_LE(outliers, 4);
}

TEST(HosMinerQueryTest, QueryRejectsBadId) {
  auto generated = MakePlanted(6, 100);
  auto miner = HosMiner::Build(std::move(generated.dataset), {});
  ASSERT_TRUE(miner.ok());
  EXPECT_TRUE(miner->Query(100000).status().IsOutOfRange());
}

TEST(HosMinerQueryTest, ExternalPointQuery) {
  auto generated = MakePlanted(7);
  // Copy the planted point's raw coordinates before Build consumes the
  // dataset (Build normalises internally but QueryPoint takes raw coords —
  // here generator output is already in [0,1], so raw == pre-normalised).
  const data::PointId planted = generated.outliers[0].id;
  std::vector<double> raw = generated.dataset.RowCopy(planted);
  const Subspace truth = generated.outliers[0].subspace;

  auto miner = HosMiner::Build(std::move(generated.dataset), {});
  ASSERT_TRUE(miner.ok());
  auto result = miner->QueryPoint(raw);
  ASSERT_TRUE(result.ok());
  // The identical point is in the dataset (distance 0 to itself), which
  // lowers OD; it must still be outlying in (a subset of) the planted
  // subspace's closure, since k=5 neighbours dominate.
  ASSERT_TRUE(result->is_outlier_anywhere());
  bool related = false;
  for (const Subspace& s : result->outlying_subspaces()) {
    related |= s.IsSubsetOf(truth) || truth.IsSubsetOf(s);
  }
  EXPECT_TRUE(related);

  EXPECT_TRUE(miner->QueryPoint({1.0}).status().IsInvalidArgument());
}

TEST(HosMinerQueryTest, QueryPointRejectsNonFiniteCoordinates) {
  // Column 0 is constant, so its fitted scale is the 1e-12 floor: a finite
  // query value far outside it normalizes to +Inf.
  Rng rng(4);
  data::Dataset ds = data::GenerateUniform(60, 3, &rng);
  for (data::PointId id = 0; id < ds.size(); ++id) ds.Set(id, 0, 0.5);
  auto miner = HosMiner::Build(std::move(ds), {});
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& point :
       {std::vector<double>{0.5, nan, 0.5}, std::vector<double>{0.5, 0.5, inf},
        std::vector<double>{0.5, -inf, 0.5}}) {
    auto rejected = miner->QueryPoint(point);
    ASSERT_FALSE(rejected.ok());
    EXPECT_TRUE(rejected.status().IsInvalidArgument());
    EXPECT_TRUE(Mentions(rejected.status(), "query point, dimension"))
        << rejected.status().ToString();
  }
  auto overflow = miner->QueryPoint({1e300, 0.5, 0.5});
  ASSERT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsInvalidArgument());
  EXPECT_TRUE(
      Mentions(overflow.status(), "query point, dimension 0 normalizes to"))
      << overflow.status().ToString();
  EXPECT_TRUE(miner->QueryPoint({0.5, 0.5, 0.5}).ok());
}

TEST(HosMinerQueryTest, AllBackendsAgree) {
  auto generated = MakePlanted(8, 300, 5);
  const data::PointId planted = generated.outliers[0].id;

  HosMinerConfig base_config;
  base_config.threshold = 1.0;
  base_config.sample_size = 0;

  std::vector<Subspace> reference;
  for (IndexKind index : {IndexKind::kXTree, IndexKind::kLinearScan}) {
    HosMinerConfig config = base_config;
    config.index = index;
    data::Dataset copy = generated.dataset;
    auto miner = HosMiner::Build(std::move(copy), config);
    ASSERT_TRUE(miner.ok());
    auto result = miner->Query(planted);
    ASSERT_TRUE(result.ok());
    if (reference.empty()) {
      reference = result->outlying_subspaces();
      ASSERT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(result->outlying_subspaces(), reference)
          << "backend " << static_cast<int>(index);
    }
  }
}

TEST(HosMinerQueryTest, LearningReducesOrMatchesWork) {
  auto generated = MakePlanted(9, 500, 8);
  const data::PointId planted = generated.outliers[0].id;

  HosMinerConfig no_learning;
  no_learning.sample_size = 0;
  no_learning.threshold = 1.0;
  HosMinerConfig with_learning = no_learning;
  with_learning.sample_size = 15;

  data::Dataset copy = generated.dataset;
  auto a = HosMiner::Build(std::move(generated.dataset), no_learning);
  auto b = HosMiner::Build(std::move(copy), with_learning);
  ASSERT_TRUE(a.ok() && b.ok());
  auto ra = a->Query(planted);
  auto rb = b->Query(planted);
  ASSERT_TRUE(ra.ok() && rb.ok());
  // Identical answers regardless of priors.
  EXPECT_EQ(ra->outlying_subspaces(), rb->outlying_subspaces());
  // Learned priors were actually produced.
  EXPECT_EQ(b->learning_report().sample_ids.size(), 15u);
}

TEST(HosMinerQueryTest, CountersPopulated) {
  auto generated = MakePlanted(10, 200, 5);
  auto miner = HosMiner::Build(std::move(generated.dataset), {});
  ASSERT_TRUE(miner.ok());
  auto result = miner->Query(0);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->outcome.counters.od_evaluations, 0u);
  EXPECT_GT(result->outcome.counters.distance_computations, 0u);
  EXPECT_GT(result->outcome.counters.steps, 0u);
  EXPECT_GE(result->outcome.counters.elapsed_seconds, 0.0);
}

TEST(HosMinerConfigTest, ZScoreNormalizationWorks) {
  auto generated = MakePlanted(11, 300, 5);
  const data::PointId planted = generated.outliers[0].id;
  HosMinerConfig config;
  config.normalization = data::NormalizationKind::kZScore;
  auto miner = HosMiner::Build(std::move(generated.dataset), config);
  ASSERT_TRUE(miner.ok());
  auto result = miner->Query(planted);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->is_outlier_anywhere());
}

TEST(HosMinerConfigTest, ZScoreIgnoresALargeColumnOffset) {
  Rng plain_rng(13);
  Rng shifted_rng(13);
  data::Dataset plain = data::GenerateUniform(200, 3, &plain_rng);
  data::Dataset shifted = data::GenerateUniform(200, 3, &shifted_rng);
  for (data::PointId id = 0; id < shifted.size(); ++id) {
    shifted.Set(id, 0, shifted.At(id, 0) + 1e6);
  }
  HosMinerConfig config;
  config.normalization = data::NormalizationKind::kZScore;
  auto plain_miner = HosMiner::Build(std::move(plain), config);
  auto shifted_miner = HosMiner::Build(std::move(shifted), config);
  ASSERT_TRUE(plain_miner.ok() && shifted_miner.ok());
  for (data::PointId id = 0; id < plain_miner->dataset().size(); ++id) {
    EXPECT_NEAR(shifted_miner->dataset().At(id, 0),
                plain_miner->dataset().At(id, 0), 1e-6)
        << "row " << id;
  }
}

TEST(HosMinerConfigTest, L1MetricWorks) {
  auto generated = MakePlanted(12, 300, 5);
  const data::PointId planted = generated.outliers[0].id;
  HosMinerConfig config;
  config.metric = knn::MetricKind::kL1;
  auto miner = HosMiner::Build(std::move(generated.dataset), config);
  ASSERT_TRUE(miner.ok());
  auto result = miner->Query(planted);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->is_outlier_anywhere());
}

}  // namespace
}  // namespace hos::core
