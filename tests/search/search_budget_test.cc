// Regression tests for SearchExecution::max_od_evaluations — the guard
// that turns runaway searches (exhaustive / non-band data past the dense
// lattice cap) into fast ResourceExhausted failures instead of hours of
// kNN work. The key property: the check fires *before* a level batch is
// materialised, so a d = 26 exhaustive query dies in milliseconds even
// though its third level alone holds C(26, 3) = 2600 subspaces and its
// middle levels ~10^7.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/hos_miner.h"
#include "src/data/generator.h"
#include "src/knn/linear_scan.h"
#include "src/search/od_evaluator.h"
#include "src/search/subspace_search.h"

namespace hos::search {
namespace {

data::Dataset MakeData(size_t rows, int dims, uint64_t seed) {
  Rng rng(seed);
  return data::GenerateUniform(rows, dims, &rng);
}

TEST(SearchBudgetTest, ExhaustiveWithinBudgetSucceeds) {
  const int d = 8;
  data::Dataset dataset = MakeData(60, d, 1);
  knn::LinearScanKnn engine(dataset, knn::MetricKind::kL2);
  OdEvaluator od(engine, dataset.Row(0), 3, data::PointId{0});
  ExhaustiveSearch search(d);
  SearchExecution exec;
  exec.max_od_evaluations = (uint64_t{1} << d) - 1;  // exactly enough
  auto outcome = search.Run(&od, 0.8, exec);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->counters.od_evaluations, (uint64_t{1} << d) - 1);
}

TEST(SearchBudgetTest, ExhaustiveOverBudgetFailsWithResourceExhausted) {
  const int d = 8;
  data::Dataset dataset = MakeData(60, d, 1);
  knn::LinearScanKnn engine(dataset, knn::MetricKind::kL2);
  OdEvaluator od(engine, dataset.Row(0), 3, data::PointId{0});
  ExhaustiveSearch search(d);
  SearchExecution exec;
  exec.max_od_evaluations = 40;  // level 2 (28 masks) fits, level 3 doesn't
  auto outcome = search.Run(&od, 0.8, exec);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsResourceExhausted())
      << outcome.status().ToString();
  // The failure is cheap: at most levels 1 and 2 were evaluated.
  EXPECT_LE(od.num_evaluations(), 40u);
}

// The ROADMAP scenario: d > 22 forces the sparse lattice store, and an
// exhaustive walk over uniform (non-band) data is intractable. The budget
// must kill it before the wave for a C(26, m) level is even allocated.
TEST(SearchBudgetTest, HighDimensionalExhaustiveFailsFast) {
  const int d = 26;
  data::Dataset dataset = MakeData(50, d, 2);
  knn::LinearScanKnn engine(dataset, knn::MetricKind::kL2);
  OdEvaluator od(engine, dataset.Row(0), 3, data::PointId{0});
  ExhaustiveSearch search(d);
  SearchExecution exec;
  exec.max_od_evaluations = 1000;
  auto outcome = search.Run(&od, 0.5, exec);
  ASSERT_FALSE(outcome.ok());
  EXPECT_TRUE(outcome.status().IsResourceExhausted())
      << outcome.status().ToString();
  EXPECT_LE(od.num_evaluations(), 1000u);
}

TEST(SearchBudgetTest, AllPruningStrategiesHonorTheBudget) {
  const int d = 8;
  data::Dataset dataset = MakeData(60, d, 3);
  knn::LinearScanKnn engine(dataset, knn::MetricKind::kL2);
  lattice::PruningPriors priors = lattice::PruningPriors::Flat(d);

  std::vector<std::unique_ptr<SubspaceSearch>> strategies;
  strategies.push_back(std::make_unique<DynamicSubspaceSearch>(d, priors));
  strategies.push_back(std::make_unique<BottomUpSearch>(d));
  strategies.push_back(std::make_unique<TopDownSearch>(d));

  for (const auto& strategy : strategies) {
    SCOPED_TRACE(std::string(strategy->name()));
    OdEvaluator od(engine, dataset.Row(1), 3, data::PointId{1});
    SearchExecution exec;
    exec.max_od_evaluations = 5;  // far below any full level at d = 8
    auto outcome = strategy->Run(&od, 0.8, exec);
    ASSERT_FALSE(outcome.ok());
    EXPECT_TRUE(outcome.status().IsResourceExhausted())
        << outcome.status().ToString();
  }
}

TEST(SearchBudgetTest, BudgetDoesNotChangeAnswersWhenItFits) {
  const int d = 7;
  data::Dataset dataset = MakeData(80, d, 4);
  knn::LinearScanKnn engine(dataset, knn::MetricKind::kL2);
  lattice::PruningPriors priors = lattice::PruningPriors::Flat(d);
  DynamicSubspaceSearch search(d, priors);

  OdEvaluator od_unbounded(engine, dataset.Row(2), 3, data::PointId{2});
  auto unbounded = search.Run(&od_unbounded, 0.7);
  ASSERT_TRUE(unbounded.ok());

  OdEvaluator od_bounded(engine, dataset.Row(2), 3, data::PointId{2});
  SearchExecution exec;
  exec.max_od_evaluations = (uint64_t{1} << d) - 1;
  auto bounded = search.Run(&od_bounded, 0.7, exec);
  ASSERT_TRUE(bounded.ok());

  EXPECT_EQ(bounded->minimal_outlying_subspaces,
            unbounded->minimal_outlying_subspaces);
  EXPECT_EQ(bounded->evaluated_outliers, unbounded->evaluated_outliers);
  EXPECT_EQ(bounded->counters.od_evaluations,
            unbounded->counters.od_evaluations);
}

// A budget of one evaluation is exactly a full-space inlier's walk: the
// full space is its one evaluation, and downward pruning decides the rest.
// An outlier's walk must go on to level 1 and fails before evaluating it.
TEST(SearchBudgetTest, OneEvaluationAnswersAnInlierAndStopsAnOutlier) {
  const int d = 8;
  data::Dataset dataset = MakeData(60, d, 6);
  const std::vector<double> far_row(d, 10.0);
  const data::PointId far = dataset.Append(far_row);
  knn::LinearScanKnn engine(dataset, knn::MetricKind::kL2);
  DynamicSubspaceSearch search(d, lattice::PruningPriors::Flat(d));
  SearchExecution exec;
  exec.max_od_evaluations = 1;
  constexpr double kThreshold = 15.0;  // inliers ~2, the far row's OD >= 27

  OdEvaluator inlier_od(engine, dataset.Row(0), 3, data::PointId{0});
  auto inlier = search.Run(&inlier_od, kThreshold, exec);
  ASSERT_TRUE(inlier.ok()) << inlier.status().ToString();
  EXPECT_TRUE(inlier->minimal_outlying_subspaces.empty());
  EXPECT_EQ(inlier->counters.od_evaluations, 1u);
  EXPECT_EQ(inlier->counters.pruned_downward, (uint64_t{1} << d) - 2);
  EXPECT_EQ(inlier->counters.steps, 1u);

  OdEvaluator outlier_od(engine, dataset.Row(far), 3, far);
  auto outlier = search.Run(&outlier_od, kThreshold, exec);
  ASSERT_FALSE(outlier.ok());
  EXPECT_TRUE(outlier.status().IsResourceExhausted());
  EXPECT_EQ(outlier.status().message(),
            "search work budget exceeded: level 1 holds 8 undecided "
            "subspaces, but only 0 of the 1 budgeted OD evaluations remain "
            "(raise SearchExecution::max_od_evaluations, use a "
            "band-pruning-friendly strategy, or reduce dimensionality)");
  EXPECT_EQ(outlier_od.num_evaluations(), 1u);
}

// End-to-end: the knob reaches HosMiner::Query through QueryOptions.
TEST(SearchBudgetTest, QueryOptionsBudgetReachesTheSearch) {
  Rng rng(5);
  data::Dataset dataset = data::GenerateUniform(100, 8, &rng);
  core::HosMinerConfig config;
  config.k = 3;
  config.sample_size = 0;
  // A threshold below every OD makes all subspaces outlying, so the
  // refinement needs the whole 1-d level (8 evaluations) — guaranteed to
  // overrun a budget of 3 whatever order the dynamic search picks.
  config.threshold = 1e-9;
  auto miner = core::HosMiner::Build(std::move(dataset), config);
  ASSERT_TRUE(miner.ok());

  auto unbounded_probe = miner->Query(0);
  ASSERT_TRUE(unbounded_probe.ok());
  ASSERT_GT(unbounded_probe->outcome.counters.od_evaluations, 3u);

  core::QueryOptions options;
  options.max_od_evaluations = 3;
  auto result = miner->Query(0, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();

  options.max_od_evaluations = 0;  // unlimited again
  auto ok_result = miner->Query(0, options);
  EXPECT_TRUE(ok_result.ok());
}

}  // namespace
}  // namespace hos::search
