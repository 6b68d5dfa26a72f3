// Cross-module pipeline tests mirroring the demo flow (paper §4): data in,
// system built on a chosen backend, screening, per-point subspace answers,
// explanation profile, heuristic cross-check, JSON out.

#include <gtest/gtest.h>

#include "src/core/hos_miner.h"
#include "src/core/od_profile.h"
#include "src/core/result_json.h"
#include "src/data/generator.h"
#include "src/search/genetic_search.h"

namespace hos {
namespace {

struct Pipeline {
  data::GeneratedData generated;
  core::HosMiner miner;
};

Result<Pipeline> BuildPipeline(core::IndexKind index, uint64_t seed) {
  Rng rng(seed);
  data::SubspaceOutlierSpec spec;
  spec.num_points = 350;
  spec.num_dims = 7;
  spec.planted_subspaces = {Subspace::FromOneBased({2, 3})};
  spec.displacement = 0.55;
  HOS_ASSIGN_OR_RETURN(data::GeneratedData generated,
                       data::GenerateSubspaceOutliers(spec, &rng));
  core::HosMinerConfig config;
  config.index = index;
  config.seed = seed;
  data::Dataset copy = generated.dataset;
  HOS_ASSIGN_OR_RETURN(core::HosMiner miner,
                       core::HosMiner::Build(std::move(copy), config));
  return Pipeline{std::move(generated), std::move(miner)};
}

class DemoPipelineTest : public ::testing::TestWithParam<core::IndexKind> {};

TEST_P(DemoPipelineTest, ScreenDetailExplainExport) {
  auto pipeline = BuildPipeline(GetParam(), 7);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  core::HosMiner& miner = pipeline->miner;
  const data::PointId planted = pipeline->generated.outliers[0].id;
  const Subspace truth = pipeline->generated.outliers[0].subspace;

  // 1. Screening finds the planted point.
  auto flagged = miner.ScreenOutliers();
  bool planted_flagged = false;
  for (const auto& hit : flagged) planted_flagged |= (hit.id == planted);
  ASSERT_TRUE(planted_flagged);

  // 2. Detailing recovers the planted subspace.
  auto result = miner.Query(planted);
  ASSERT_TRUE(result.ok());
  bool recovered = false;
  for (const Subspace& s : result->outlying_subspaces()) {
    recovered |= (s == truth);
  }
  EXPECT_TRUE(recovered);

  // 3. The explanation profile puts the planted pair on top of level 2 and
  //    votes its dimensions highest.
  search::OdEvaluator od(miner.engine(), miner.dataset().Row(planted),
                         miner.config().k, planted);
  auto profile = core::ComputeOdProfile(&od, miner.num_dims());
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->levels[2].argmax, truth);
  auto dominant = profile->DominantDimensions();
  EXPECT_TRUE((dominant[0] == 1 && dominant[1] == 2) ||
              (dominant[0] == 2 && dominant[1] == 1));

  // 4. The genetic heuristic's answers are a subset of the exact ones.
  search::GeneticSubspaceSearch ga(miner.num_dims());
  Rng ga_rng(7);
  search::OdEvaluator ga_od(miner.engine(), miner.dataset().Row(planted),
                            miner.config().k, planted);
  for (const Subspace& s : ga.Run(&ga_od, miner.threshold(), &ga_rng)) {
    EXPECT_TRUE(result->outcome.IsOutlying(s)) << s.ToString();
  }

  // 5. JSON export is well-formed and carries the verdict.
  std::string json = core::QueryResultToJson(*result);
  EXPECT_NE(json.find("\"is_outlier\":true"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

INSTANTIATE_TEST_SUITE_P(Backends, DemoPipelineTest,
                         ::testing::Values(core::IndexKind::kXTree,
                                           core::IndexKind::kLinearScan),
                         [](const auto& info) {
                           return info.param == core::IndexKind::kXTree
                                      ? "XTree"
                                      : "LinearScan";
                         });

TEST(DemoPipelineTest, BackendsProduceIdenticalScreenSets) {
  auto a = BuildPipeline(core::IndexKind::kXTree, 9);
  auto b = BuildPipeline(core::IndexKind::kLinearScan, 9);
  ASSERT_TRUE(a.ok() && b.ok());
  auto fa = a->miner.ScreenOutliers();
  auto fb = b->miner.ScreenOutliers();
  ASSERT_EQ(fa.size(), fb.size());
  for (size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].id, fb[i].id);
    EXPECT_NEAR(fa[i].full_space_od, fb[i].full_space_od, 1e-9);
  }
}

}  // namespace
}  // namespace hos
