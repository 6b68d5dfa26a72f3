// Property suite over the full search pipeline: for random datasets,
// metrics, dimensionalities and *learned* priors, the dynamic search must
// (a) agree with the exhaustive oracle, (b) decide the whole lattice with
// consistent counters, and (c) produce a minimal antichain whose up-closure
// matches the oracle's outlier set.

#include <gtest/gtest.h>

#include <memory>

#include "src/common/combinatorics.h"
#include "src/data/generator.h"
#include "src/filter/minimal_filter.h"
#include "src/knn/linear_scan.h"
#include "src/learning/learner.h"
#include "src/search/od_evaluator.h"
#include "src/search/subspace_search.h"
#include "src/service/thread_pool.h"

namespace hos::search {
namespace {

struct Param {
  knn::MetricKind metric;
  int num_dims;
  uint64_t seed;
};

class SearchPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(SearchPropertyTest, LearnedPriorsPreserveExactness) {
  const Param param = GetParam();
  Rng rng(param.seed);
  data::SubspaceOutlierSpec spec;
  spec.num_points = 250;
  spec.num_dims = param.num_dims;
  spec.planted_subspaces = {Subspace::FromOneBased({1, 2})};
  spec.displacement = 0.5;
  auto generated = data::GenerateSubspaceOutliers(spec, &rng);
  ASSERT_TRUE(generated.ok());
  const data::Dataset& ds = generated->dataset;
  knn::LinearScanKnn engine(ds, param.metric);

  // Learn priors on this dataset (threshold chosen mid-range).
  const double threshold = param.metric == knn::MetricKind::kL1 ? 1.5 : 1.0;
  learning::LearnerOptions learner_options;
  learner_options.sample_size = 8;
  learner_options.k = 4;
  learner_options.threshold = threshold;
  auto report = learning::LearnPruningPriors(ds, engine, learner_options,
                                             &rng);

  // Query a mix of points: planted outlier + random background.
  std::vector<data::PointId> queries = {generated->outliers[0].id, 0, 17};
  for (data::PointId q : queries) {
    // Separate evaluators so each strategy's work counters are its own;
    // OD values are deterministic, so the answers stay exactly comparable.
    OdEvaluator od(engine, ds.Row(q), 4, q);
    ExhaustiveSearch oracle(param.num_dims);
    auto expected = oracle.Run(&od, threshold).value();

    OdEvaluator dynamic_od(engine, ds.Row(q), 4, q);
    DynamicSubspaceSearch dynamic(param.num_dims, report.priors);
    auto outcome = dynamic.Run(&dynamic_od, threshold).value();

    // (a) identical answers.
    EXPECT_EQ(outcome.minimal_outlying_subspaces,
              expected.minimal_outlying_subspaces)
        << "query " << q;

    // (b) the whole lattice is accounted for.
    const uint64_t lattice = (uint64_t{1} << param.num_dims) - 1;
    EXPECT_EQ(outcome.counters.od_evaluations +
                  outcome.counters.pruned_upward +
                  outcome.counters.pruned_downward,
              lattice);

    // (c) minimality + closure: the minimal set is an antichain and its
    // up-closure size equals the oracle's total.
    const auto& minimal = outcome.minimal_outlying_subspaces;
    for (size_t i = 0; i < minimal.size(); ++i) {
      for (size_t j = 0; j < minimal.size(); ++j) {
        if (i != j) {
          EXPECT_FALSE(minimal[i].IsSubsetOf(minimal[j]));
        }
      }
    }
    EXPECT_EQ(outcome.TotalOutlyingCount(), expected.TotalOutlyingCount());

    // (d) spot-check closure membership against the evaluator directly.
    for (uint64_t mask = 1; mask <= lattice; mask += 7) {
      Subspace s(mask);
      EXPECT_EQ(outcome.IsOutlying(s), od.Evaluate(s) >= threshold)
          << "mask " << mask;
    }
  }
}

// Every strategy, in every execution mode, must account for the entire
// lattice: explicit evaluations plus the two prunings cover all 2^d - 1
// subspaces exactly once, and the evaluator computed exactly the reported
// evaluations.
TEST_P(SearchPropertyTest, EveryStrategyAccountsForTheWholeLattice) {
  const Param param = GetParam();
  const int d = param.num_dims;
  Rng rng(param.seed);
  data::SubspaceOutlierSpec spec;
  spec.num_points = 180;
  spec.num_dims = d;
  spec.planted_subspaces = {Subspace::FromOneBased({1, 2})};
  spec.displacement = 0.5;
  auto generated = data::GenerateSubspaceOutliers(spec, &rng);
  ASSERT_TRUE(generated.ok());
  const data::Dataset& ds = generated->dataset;
  knn::LinearScanKnn engine(ds, param.metric);
  const double threshold = param.metric == knn::MetricKind::kL1 ? 1.5 : 1.0;
  const data::PointId query = generated->outliers[0].id;
  const uint64_t lattice = (uint64_t{1} << d) - 1;

  learning::LearnerOptions learner_options;
  learner_options.sample_size = 6;
  learner_options.k = 4;
  learner_options.threshold = threshold;
  auto report =
      learning::LearnPruningPriors(ds, engine, learner_options, &rng);

  std::vector<std::unique_ptr<SubspaceSearch>> strategies;
  strategies.push_back(
      std::make_unique<DynamicSubspaceSearch>(d, report.priors));
  strategies.push_back(std::make_unique<BottomUpSearch>(d));
  strategies.push_back(std::make_unique<TopDownSearch>(d));
  strategies.push_back(std::make_unique<ExhaustiveSearch>(d));

  service::ThreadPool pool(3);
  std::vector<SearchExecution> modes(2);
  modes[1].pool = &pool;

  for (const auto& strategy : strategies) {
    for (const SearchExecution& exec : modes) {
      SCOPED_TRACE(std::string(strategy->name()) +
                   (exec.pool ? " parallel" : " sequential"));
      OdEvaluator od(engine, ds.Row(query), 4, query);
      auto outcome = strategy->Run(&od, threshold, exec);
      ASSERT_TRUE(outcome.ok());
      EXPECT_EQ(outcome->counters.od_evaluations +
                    outcome->counters.pruned_upward +
                    outcome->counters.pruned_downward,
                lattice);
      // Every fresh evaluation is reported, none twice.
      EXPECT_EQ(od.num_evaluations(), outcome->counters.od_evaluations);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SearchPropertyTest,
    ::testing::Values(Param{knn::MetricKind::kL2, 5, 21},
                      Param{knn::MetricKind::kL2, 7, 22},
                      Param{knn::MetricKind::kL1, 6, 23},
                      Param{knn::MetricKind::kLInf, 6, 24},
                      Param{knn::MetricKind::kL2, 9, 25}),
    [](const auto& info) {
      return std::string(knn::MetricKindToString(info.param.metric)) + "_d" +
             std::to_string(info.param.num_dims);
    });

}  // namespace
}  // namespace hos::search
