#include "src/search/subspace_search.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/combinatorics.h"
#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/data/generator.h"
#include "src/knn/linear_scan.h"
#include "src/lattice/lattice_store.h"
#include "src/search/frontier_support.h"

namespace hos::search {
namespace {

struct Fixture {
  data::Dataset dataset;
  std::unique_ptr<knn::LinearScanKnn> engine;
  data::PointId query_id;

  static Fixture MakePlanted(uint64_t seed, int num_dims) {
    Rng rng(seed);
    data::SubspaceOutlierSpec spec;
    spec.num_points = 300;
    spec.num_dims = num_dims;
    spec.planted_subspaces = {Subspace::FromOneBased({1, 2})};
    auto generated = data::GenerateSubspaceOutliers(spec, &rng);
    EXPECT_TRUE(generated.ok());
    Fixture f{std::move(generated->dataset), nullptr,
              generated->outliers[0].id};
    f.engine = std::make_unique<knn::LinearScanKnn>(f.dataset,
                                                    knn::MetricKind::kL2);
    return f;
  }
};

constexpr int kK = 5;
constexpr double kThreshold = 1.0;  // ~0.2 avg kNN distance over k=5

TEST(ExhaustiveSearchTest, EvaluatesEverySubspace) {
  Fixture f = Fixture::MakePlanted(1, 5);
  auto row = f.dataset.Row(f.query_id);
  OdEvaluator od(*f.engine, row, kK, f.query_id);
  ExhaustiveSearch search(5);
  auto outcome = search.Run(&od, kThreshold).value();
  EXPECT_EQ(outcome.counters.od_evaluations, (1u << 5) - 1);
  EXPECT_EQ(outcome.counters.pruned_upward, 0u);
  EXPECT_EQ(outcome.counters.pruned_downward, 0u);
}

TEST(ExhaustiveSearchTest, FindsPlantedSubspace) {
  Fixture f = Fixture::MakePlanted(2, 5);
  auto row = f.dataset.Row(f.query_id);
  OdEvaluator od(*f.engine, row, kK, f.query_id);
  ExhaustiveSearch search(5);
  auto outcome = search.Run(&od, kThreshold).value();
  ASSERT_FALSE(outcome.minimal_outlying_subspaces.empty());
  EXPECT_EQ(outcome.minimal_outlying_subspaces[0],
            Subspace::FromOneBased({1, 2}));
}

TEST(DynamicSearchTest, PrunesWork) {
  Fixture f = Fixture::MakePlanted(3, 8);
  auto row = f.dataset.Row(f.query_id);
  OdEvaluator od(*f.engine, row, kK, f.query_id);
  DynamicSubspaceSearch search(8, lattice::PruningPriors::Flat(8));
  auto outcome = search.Run(&od, kThreshold).value();
  // The whole lattice is decided with strictly fewer evaluations than 2^d-1.
  const uint64_t lattice_size = (1u << 8) - 1;
  EXPECT_LT(outcome.counters.od_evaluations, lattice_size);
  EXPECT_EQ(outcome.counters.od_evaluations + outcome.counters.pruned_upward +
                outcome.counters.pruned_downward,
            lattice_size);
  EXPECT_GT(outcome.counters.pruned_upward + outcome.counters.pruned_downward,
            0u);
}

TEST(DynamicSearchTest, MismatchedPriorsReturnInvalidArgument) {
  // Priors sized for a different dimensionality would index out of bounds
  // inside TotalSavingFactor; Run must reject them instead (regression:
  // this used to be an unchecked precondition).
  Fixture f = Fixture::MakePlanted(5, 6);
  auto row = f.dataset.Row(f.query_id);
  OdEvaluator od(*f.engine, row, kK, f.query_id);
  DynamicSubspaceSearch search(6, lattice::PruningPriors::Flat(4));
  auto outcome = search.Run(&od, kThreshold);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(od.num_evaluations(), 0u);  // rejected before any kNN work
}

TEST(SearchValidationTest, NonPositiveDimsReturnInvalidArgument) {
  // Regression: a strategy constructed over d <= 0 used to be undefined
  // behaviour (the lattice allocated 2^d of nothing); now the store
  // factory rejects it and Run surfaces the error.
  Fixture f = Fixture::MakePlanted(6, 4);
  auto row = f.dataset.Row(f.query_id);
  for (int d : {0, -5}) {
    OdEvaluator od(*f.engine, row, kK, f.query_id);
    std::vector<std::unique_ptr<SubspaceSearch>> strategies;
    strategies.push_back(std::make_unique<ExhaustiveSearch>(d));
    strategies.push_back(std::make_unique<BottomUpSearch>(d));
    strategies.push_back(std::make_unique<TopDownSearch>(d));
    for (const auto& search : strategies) {
      auto outcome = search->Run(&od, kThreshold);
      ASSERT_FALSE(outcome.ok()) << search->name() << " d=" << d;
      EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(outcome.status().ToString().find(
                    "1.." + std::to_string(lattice::kMaxLatticeDims)),
                std::string::npos);
      EXPECT_EQ(od.num_evaluations(), 0u);  // rejected before any kNN work
    }
  }
}

TEST(DynamicSearchTest, VisitsEachLevelAtMostOnce) {
  Fixture f = Fixture::MakePlanted(4, 6);
  auto row = f.dataset.Row(f.query_id);
  OdEvaluator od(*f.engine, row, kK, f.query_id);
  DynamicSubspaceSearch search(6, lattice::PruningPriors::Flat(6));
  auto outcome = search.Run(&od, kThreshold).value();
  EXPECT_LE(outcome.counters.steps, 6u);
}

// The load-bearing correctness property: all strategies return the same
// answer set as the exhaustive oracle, on randomised planted datasets,
// across dimensionalities and thresholds.
struct EquivParam {
  uint64_t seed;
  int num_dims;
  double threshold;
};

class SearchEquivalenceTest : public ::testing::TestWithParam<EquivParam> {};

TEST_P(SearchEquivalenceTest, AllStrategiesMatchExhaustive) {
  const auto param = GetParam();
  Fixture f = Fixture::MakePlanted(param.seed, param.num_dims);
  auto row = f.dataset.Row(f.query_id);
  OdEvaluator od(*f.engine, row, kK, f.query_id);

  ExhaustiveSearch oracle(param.num_dims);
  auto expected = oracle.Run(&od, param.threshold).value();

  std::vector<std::unique_ptr<SubspaceSearch>> strategies;
  strategies.push_back(std::make_unique<DynamicSubspaceSearch>(
      param.num_dims, lattice::PruningPriors::Flat(param.num_dims)));
  strategies.push_back(std::make_unique<BottomUpSearch>(param.num_dims));
  strategies.push_back(std::make_unique<TopDownSearch>(param.num_dims));

  for (const auto& strategy : strategies) {
    // Same evaluator: the OD cache guarantees identical OD values, so any
    // mismatch is a pruning-logic bug, not numeric noise.
    auto outcome = strategy->Run(&od, param.threshold).value();
    EXPECT_EQ(outcome.minimal_outlying_subspaces,
              expected.minimal_outlying_subspaces)
        << strategy->name();
    for (int m = 1; m <= param.num_dims; ++m) {
      EXPECT_DOUBLE_EQ(outcome.outlier_fraction[m],
                       expected.outlier_fraction[m])
          << strategy->name() << " level " << m;
    }
    EXPECT_EQ(outcome.TotalOutlyingCount(), expected.TotalOutlyingCount())
        << strategy->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Randomised, SearchEquivalenceTest,
    ::testing::Values(EquivParam{11, 4, 0.5}, EquivParam{12, 4, 1.0},
                      EquivParam{13, 5, 0.8}, EquivParam{14, 6, 1.0},
                      EquivParam{15, 6, 0.3}, EquivParam{16, 7, 1.2},
                      EquivParam{17, 8, 1.0}, EquivParam{18, 8, 2.5},
                      EquivParam{19, 9, 0.9}, EquivParam{20, 10, 1.0}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_d" +
             std::to_string(info.param.num_dims) + "_t" +
             std::to_string(static_cast<int>(info.param.threshold * 10));
    });

TEST(SearchOutcomeTest, IsOutlyingUsesUpClosure) {
  SearchOutcome outcome;
  outcome.num_dims = 4;
  outcome.minimal_outlying_subspaces = {Subspace::FromOneBased({1, 3})};
  EXPECT_TRUE(outcome.IsOutlying(Subspace::FromOneBased({1, 3})));
  EXPECT_TRUE(outcome.IsOutlying(Subspace::FromOneBased({1, 2, 3})));
  EXPECT_FALSE(outcome.IsOutlying(Subspace::FromOneBased({1})));
  EXPECT_FALSE(outcome.IsOutlying(Subspace::FromOneBased({2, 4})));
  EXPECT_TRUE(outcome.IsOutlierAnywhere());
}

TEST(SearchOutcomeTest, TotalOutlyingCountFromMinimalSubspaces) {
  SearchOutcome outcome;
  outcome.num_dims = 4;
  outcome.minimal_outlying_subspaces = {Subspace::FromOneBased({1, 2}),
                                        Subspace::FromOneBased({1, 3}),
                                        Subspace::FromOneBased({3, 4})};
  // Up-closure: the three seeds at level 2, all four 3-subsets ({2,3,4}
  // holds {3,4}) and the full space: 3 + 4 + 1.
  EXPECT_EQ(outcome.TotalOutlyingCount(), 8u);
}

// At the dimensionality cap the outlying set of {1} is every subspace that
// holds dimension 1: 2^57 of them, C(57, m - 1) per level. Several of those
// level counts are not exact doubles, so a total rebuilt from the
// outcome's per-level fractions misses 2^57; the count must not.
TEST(SearchOutcomeTest, TotalOutlyingCountIsExactAtTheDimensionalityCap) {
  const int d = lattice::kMaxLatticeDims;
  Rng rng(58);
  const data::Dataset dataset = data::GenerateUniform(8, d, &rng);
  const knn::LinearScanKnn engine(dataset, knn::MetricKind::kL2);
  const OdEvaluator od(engine, dataset.Row(0), 2, data::PointId{0});

  auto state = lattice::MakeLatticeStore(d).value();
  const Subspace dim1 = Subspace::FromOneBased({1});
  state->MarkEvaluated(dim1, true);
  state->MarkEvaluated(Subspace(Subspace::Full(d).mask() & ~dim1.mask()),
                       false);
  state->Propagate();
  ASSERT_TRUE(state->AllDecided());

  const SearchOutcome outcome =
      internal::AssembleOutcome(*state, 1.0, od, 0, 0, 2, Timer());
  ASSERT_EQ(outcome.minimal_outlying_subspaces, std::vector<Subspace>{dim1});
  EXPECT_EQ(outcome.TotalOutlyingCount(), uint64_t{1} << 57);
}

TEST(SearchTest, ThresholdInfinityMeansNoOutliers) {
  Fixture f = Fixture::MakePlanted(21, 5);
  auto row = f.dataset.Row(f.query_id);
  OdEvaluator od(*f.engine, row, kK, f.query_id);
  DynamicSubspaceSearch search(5, lattice::PruningPriors::Flat(5));
  auto outcome = search.Run(&od, 1e18).value();
  EXPECT_TRUE(outcome.minimal_outlying_subspaces.empty());
  EXPECT_FALSE(outcome.IsOutlierAnywhere());
  EXPECT_EQ(outcome.TotalOutlyingCount(), 0u);
}

TEST(SearchTest, ThresholdZeroMakesEverythingOutlying) {
  Fixture f = Fixture::MakePlanted(22, 5);
  auto row = f.dataset.Row(f.query_id);
  OdEvaluator od(*f.engine, row, kK, f.query_id);
  DynamicSubspaceSearch search(5, lattice::PruningPriors::Flat(5));
  auto outcome = search.Run(&od, 0.0).value();
  // Every singleton has OD >= 0 = T, so the minimal set is the singletons.
  ASSERT_EQ(outcome.minimal_outlying_subspaces.size(), 5u);
  EXPECT_EQ(outcome.TotalOutlyingCount(), (1u << 5) - 1);
}

}  // namespace
}  // namespace hos::search
