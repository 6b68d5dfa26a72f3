// Cross-strategy differential harness: for every d in 4..12 and two
// thresholds per d, every strategy {dynamic, bottom-up, top-down,
// exhaustive} is held to:
//
//   * the exact outlying-subspace answer of the ExhaustiveSearch oracle,
//     for every one of the 2^d - 1 subspaces;
//   * bitwise-identical OD values: every subspace a run memoised must carry
//     exactly the double the oracle's evaluation produced;
//   * the closure identity: evaluations plus both prunings cover the
//     lattice, and each fresh evaluation is counted once.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "src/filter/density_filter.h"
#include "src/filter/density_summary.h"
#include "src/knn/linear_scan.h"
#include "src/search/od_evaluator.h"
#include "src/search/subspace_search.h"
#include "tests/testutil/adversarial_gen.h"

namespace hos::search {
namespace {

/// All masks a run actually memoised, with their values.
std::vector<std::pair<uint64_t, double>> MemoisedValues(const OdEvaluator& od,
                                                        int d) {
  std::vector<std::pair<uint64_t, double>> out;
  const uint64_t lattice = (uint64_t{1} << d) - 1;
  for (uint64_t mask = 1; mask <= lattice; ++mask) {
    double value;
    if (od.LookupLocal(mask, &value)) out.emplace_back(mask, value);
  }
  return out;
}

class StrategyDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(StrategyDifferentialTest, EveryStrategyMatchesTheOracle) {
  const int d = GetParam();
  const uint64_t lattice = (uint64_t{1} << d) - 1;

  Rng rng(1000 + static_cast<uint64_t>(d));
  data::SubspaceOutlierSpec spec;
  spec.num_points = 110;
  spec.num_dims = d;
  spec.planted_subspaces = {Subspace::FromOneBased({1, 2})};
  if (d >= 5) spec.planted_subspaces.push_back(Subspace::FromOneBased({3, 4, 5}));
  spec.displacement = 0.5;
  auto generated = data::GenerateSubspaceOutliers(spec, &rng);
  ASSERT_TRUE(generated.ok()) << generated.status().ToString();
  const data::Dataset& ds = generated->dataset;
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  const data::PointId query = generated->outliers[0].id;
  constexpr int kK = 4;

  std::vector<std::unique_ptr<SubspaceSearch>> strategies;
  strategies.push_back(std::make_unique<DynamicSubspaceSearch>(
      d, lattice::PruningPriors::Flat(d)));
  strategies.push_back(std::make_unique<BottomUpSearch>(d));
  strategies.push_back(std::make_unique<TopDownSearch>(d));
  strategies.push_back(std::make_unique<ExhaustiveSearch>(d));

  // One low threshold (rich outlier structure, both prunings active) and
  // one high (sparse outliers, mostly downward pruning).
  for (double threshold : {0.8, 1.3}) {
    SCOPED_TRACE("threshold=" + std::to_string(threshold));

    // Oracle: the exhaustive sweep evaluates (and memoises) every
    // subspace, giving the ground-truth OD for each mask.
    OdEvaluator oracle_od(engine, ds.Row(query), kK, query);
    auto oracle = ExhaustiveSearch(d).Run(&oracle_od, threshold);
    ASSERT_TRUE(oracle.ok());
    std::vector<double> truth(lattice + 1, 0.0);
    for (uint64_t mask = 1; mask <= lattice; ++mask) {
      ASSERT_TRUE(oracle_od.LookupLocal(mask, &truth[mask]));
    }

    for (const auto& strategy : strategies) {
      SCOPED_TRACE(std::string("strategy=") + std::string(strategy->name()));
      OdEvaluator od(engine, ds.Row(query), kK, query);
      auto run = strategy->Run(&od, threshold);
      ASSERT_TRUE(run.ok());

      // (1) Answer sets: identical to the oracle over the whole lattice.
      EXPECT_EQ(run->minimal_outlying_subspaces,
                oracle->minimal_outlying_subspaces);
      for (uint64_t mask = 1; mask <= lattice; ++mask) {
        ASSERT_EQ(run->IsOutlying(Subspace(mask)), truth[mask] >= threshold)
            << "mask " << mask;
      }

      // (2) Bitwise OD values: everything this run memoised matches the
      // oracle's computation exactly (no tolerance).
      for (const auto& [mask, value] : MemoisedValues(od, d)) {
        ASSERT_EQ(value, truth[mask]) << "mask " << mask;
      }

      // (3) The whole lattice is accounted for, and each fresh evaluation
      // is counted once.
      EXPECT_EQ(run->counters.od_evaluations + run->counters.pruned_upward +
                    run->counters.pruned_downward,
                lattice);
      EXPECT_EQ(od.num_evaluations(), run->counters.od_evaluations);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DimensionSweep, StrategyDifferentialTest,
                         ::testing::Range(4, 13),
                         [](const auto& info) {
                           return std::string("d").append(
                               std::to_string(info.param));
                         });

// The same cross-strategy contract on adversarially generated data:
// near-threshold OD bands (verdicts a hair on either side of T), correlated
// dimensions, exact duplicates, and tombstoned rows. Every pruning strategy
// must still match the exhaustive oracle exactly — there is no "close
// enough" when ODs are engineered to sit at T ± 3%.
TEST(StrategyDifferentialAdversarialTest, AllStrategiesMatchTheOracle) {
  testutil::AdversarialSpec spec;
  spec.num_dims = 6;
  spec.seed = 2024;
  testutil::AdversarialDataset scenario = testutil::MakeAdversarial(spec);
  data::Dataset ds = testutil::ToDataset(scenario);
  ASSERT_TRUE(ds.DeleteRows(scenario.tombstones).ok());
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);

  const int d = spec.num_dims;
  const uint64_t lattice = (uint64_t{1} << d) - 1;

  std::vector<std::unique_ptr<SubspaceSearch>> strategies;
  strategies.push_back(std::make_unique<DynamicSubspaceSearch>(
      d, lattice::PruningPriors::Flat(d)));
  strategies.push_back(std::make_unique<BottomUpSearch>(d));
  strategies.push_back(std::make_unique<TopDownSearch>(d));

  std::vector<data::PointId> queries = scenario.probes;
  queries.push_back(5);  // a background row amid the correlated cloud

  for (data::PointId query : queries) {
    SCOPED_TRACE("query id=" + std::to_string(query));
    OdEvaluator oracle_od(engine, ds.Row(query), scenario.k, query);
    auto oracle = ExhaustiveSearch(d).Run(&oracle_od, scenario.threshold);
    ASSERT_TRUE(oracle.ok());
    std::vector<double> truth(lattice + 1, 0.0);
    for (uint64_t mask = 1; mask <= lattice; ++mask) {
      ASSERT_TRUE(oracle_od.LookupLocal(mask, &truth[mask]));
    }

    for (const auto& strategy : strategies) {
      SCOPED_TRACE(std::string("strategy=") + std::string(strategy->name()));
      OdEvaluator od(engine, ds.Row(query), scenario.k, query);
      auto run = strategy->Run(&od, scenario.threshold);
      ASSERT_TRUE(run.ok());
      EXPECT_EQ(run->minimal_outlying_subspaces,
                oracle->minimal_outlying_subspaces);
      for (uint64_t mask = 1; mask <= lattice; ++mask) {
        ASSERT_EQ(run->IsOutlying(Subspace(mask)),
                  truth[mask] >= scenario.threshold)
            << "mask " << mask;
      }
      for (const auto& [mask, value] : MemoisedValues(od, d)) {
        ASSERT_EQ(value, truth[mask]) << "mask " << mask;
      }
      EXPECT_EQ(run->counters.od_evaluations + run->counters.pruned_upward +
                    run->counters.pruned_downward,
                lattice);
    }
  }
}

// Bound-margin frontier ordering is a scheduling decision, not a semantic
// one: with the density filter active, every pruning strategy run with
// kBoundMargin must match its canonical-order run field by field — the
// order-sensitive evaluated_outliers list, every work counter including
// the filter trio, and the closure identity — in both conservative and
// speculative modes, on the adversarial near-threshold data where a
// reordered merge would first diverge.
TEST(FrontierOrderingDifferentialTest, OrderingIsExecutionOnly) {
  testutil::AdversarialSpec spec;
  spec.num_dims = 6;
  spec.seed = 3033;
  testutil::AdversarialDataset scenario = testutil::MakeAdversarial(spec);
  data::Dataset ds = testutil::ToDataset(scenario);
  ASSERT_TRUE(ds.DeleteRows(scenario.tombstones).ok());
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  const filter::DensityBoundFilter filter(
      ds, knn::MetricKind::kL2,
      filter::DensitySummary::Build(ds, /*bits_per_dim=*/8));

  const int d = spec.num_dims;
  const uint64_t lattice = (uint64_t{1} << d) - 1;

  std::vector<std::unique_ptr<SubspaceSearch>> strategies;
  strategies.push_back(std::make_unique<DynamicSubspaceSearch>(
      d, lattice::PruningPriors::Flat(d)));
  strategies.push_back(std::make_unique<BottomUpSearch>(d));
  strategies.push_back(std::make_unique<TopDownSearch>(d));

  std::vector<data::PointId> queries = scenario.probes;
  queries.push_back(5);

  for (data::PointId query : queries) {
    SCOPED_TRACE("query id=" + std::to_string(query));
    for (const auto& strategy : strategies) {
      SCOPED_TRACE(std::string("strategy=") + std::string(strategy->name()));
      for (filter::FilterMode mode : {filter::FilterMode::kConservative,
                                      filter::FilterMode::kSpeculative}) {
        SCOPED_TRACE(mode == filter::FilterMode::kConservative
                         ? "conservative"
                         : "speculative");
        SearchExecution canonical;
        canonical.filter = &filter;
        canonical.filter_mode = mode;
        SearchExecution ordered = canonical;
        ordered.frontier_ordering = FrontierOrdering::kBoundMargin;

        OdEvaluator canon_od(engine, ds.Row(query), scenario.k, query);
        auto canon = strategy->Run(&canon_od, scenario.threshold, canonical);
        ASSERT_TRUE(canon.ok()) << canon.status().ToString();
        OdEvaluator ord_od(engine, ds.Row(query), scenario.k, query);
        auto ord = strategy->Run(&ord_od, scenario.threshold, ordered);
        ASSERT_TRUE(ord.ok()) << ord.status().ToString();

        EXPECT_EQ(ord->minimal_outlying_subspaces,
                  canon->minimal_outlying_subspaces);
        EXPECT_EQ(ord->evaluated_outliers, canon->evaluated_outliers);
        EXPECT_EQ(ord->outlier_fraction, canon->outlier_fraction);
        EXPECT_EQ(ord->counters.od_evaluations,
                  canon->counters.od_evaluations);
        EXPECT_EQ(ord->counters.pruned_upward,
                  canon->counters.pruned_upward);
        EXPECT_EQ(ord->counters.pruned_downward,
                  canon->counters.pruned_downward);
        EXPECT_EQ(ord->counters.steps, canon->counters.steps);
        EXPECT_EQ(ord->counters.bound_decisions,
                  canon->counters.bound_decisions);
        EXPECT_EQ(ord->counters.risky_decisions,
                  canon->counters.risky_decisions);
        EXPECT_EQ(ord->counters.bound_gap, canon->counters.bound_gap);
        EXPECT_EQ(ord->counters.gate_skips, 0u);
        EXPECT_EQ(MemoisedValues(ord_od, d), MemoisedValues(canon_od, d));
        EXPECT_EQ(ord->counters.od_evaluations +
                      ord->counters.pruned_upward +
                      ord->counters.pruned_downward +
                      ord->counters.bound_decisions,
                  lattice);
      }
    }
  }
}

}  // namespace
}  // namespace hos::search
