// Cross-strategy differential harness: the proof that parallel frontier
// evaluation AND the lattice storage backend are execution details, not
// semantic changes. For every d in 4..12 and two thresholds per d, every
// pruning strategy {dynamic, bottom-up, top-down} is run {sequentially,
// parallel across 2/4/8-thread pools} × {dense, sparse} lattice backends
// (the exhaustive sweep, which takes no pool, sequentially on both), and
// held to:
//
//   * the exact outlying-subspace answer of the ExhaustiveSearch oracle,
//     for every one of the 2^d - 1 subspaces;
//   * bitwise-identical OD values: every subspace a run memoised must carry
//     exactly the double the oracle's sequential evaluation produced;
//   * the sequential run of the same strategy, field by field — including
//     the order-sensitive evaluated_outliers list (same masks, same order:
//     the parallel merge fed the lattice store the identical seed sequence)
//     the work counters (same evaluations, same pruning, same steps);
//   * the memoised set of the sequential run: same masks, same values.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "src/filter/density_filter.h"
#include "src/filter/density_summary.h"
#include "src/knn/linear_scan.h"
#include "src/search/od_evaluator.h"
#include "src/search/subspace_search.h"
#include "src/service/thread_pool.h"
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

TEST_P(StrategyDifferentialTest, AllExecutionModesMatchTheOracle) {
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

  service::ThreadPool pool2(2), pool4(4), pool8(8);
  std::vector<service::ThreadPool*> pools = {&pool2, &pool4, &pool8};

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

    // Oracle: the exhaustive sequential sweep evaluates (and memoises)
    // every subspace, giving the ground-truth OD for each mask.
    OdEvaluator oracle_od(engine, ds.Row(query), kK, query);
    auto oracle = ExhaustiveSearch(d).Run(&oracle_od, threshold);
    ASSERT_TRUE(oracle.ok());
    std::vector<double> truth(lattice + 1, 0.0);
    for (uint64_t mask = 1; mask <= lattice; ++mask) {
      ASSERT_TRUE(oracle_od.LookupLocal(mask, &truth[mask]));
    }

    for (const auto& strategy : strategies) {
      SCOPED_TRACE(std::string("strategy=") + std::string(strategy->name()));
      const bool prunes = strategy->name() != "exhaustive";

      // Sequential reference run for this strategy.
      OdEvaluator seq_od(engine, ds.Row(query), kK, query);
      auto seq = strategy->Run(&seq_od, threshold);
      ASSERT_TRUE(seq.ok());
      EXPECT_EQ(seq->minimal_outlying_subspaces,
                oracle->minimal_outlying_subspaces);
      const auto seq_memo = MemoisedValues(seq_od, d);

      struct Mode {
        service::ThreadPool* pool;  // null = sequential
        lattice::LatticeBackend backend;
      };
      std::vector<Mode> modes;
      // Sequential on both backends (the reference run is kAuto, i.e.
      // sparse); the pruning strategies then cross both backends with
      // every thread count.
      for (lattice::LatticeBackend backend :
           {lattice::LatticeBackend::kDense,
            lattice::LatticeBackend::kSparse}) {
        modes.push_back({nullptr, backend});
        if (!prunes) continue;
        for (service::ThreadPool* pool : pools) {
          modes.push_back({pool, backend});
        }
      }

      for (const Mode& mode : modes) {
        SCOPED_TRACE(
            "threads=" +
            std::to_string(mode.pool ? mode.pool->num_threads() : 1) +
            " backend=" +
            (mode.backend == lattice::LatticeBackend::kDense ? "dense"
                                                             : "sparse"));
        SearchExecution exec;
        exec.pool = mode.pool;
        exec.lattice_backend = mode.backend;

        OdEvaluator par_od(engine, ds.Row(query), kK, query);
        auto par = strategy->Run(&par_od, threshold, exec);
        ASSERT_TRUE(par.ok());

        // (1) Answer sets: identical to the oracle and to the sequential
        // run, over the whole lattice.
        EXPECT_EQ(par->minimal_outlying_subspaces,
                  oracle->minimal_outlying_subspaces);
        for (uint64_t mask = 1; mask <= lattice; ++mask) {
          ASSERT_EQ(par->IsOutlying(Subspace(mask)),
                    truth[mask] >= threshold)
              << "mask " << mask;
        }

        // (2) Bitwise OD values: everything this run memoised matches the
        // oracle's sequential computation exactly (no tolerance).
        for (const auto& [mask, value] : MemoisedValues(par_od, d)) {
          ASSERT_EQ(value, truth[mask]) << "mask " << mask;
        }

        // (3) Field-by-field equivalence with the sequential walk. The
        // evaluated_outliers list is order-sensitive: equality means the
        // parallel merge produced the exact seed sequence.
        EXPECT_EQ(par->evaluated_outliers, seq->evaluated_outliers);
        EXPECT_EQ(par->outlier_fraction, seq->outlier_fraction);
        EXPECT_EQ(par->counters.od_evaluations,
                  seq->counters.od_evaluations);
        EXPECT_EQ(par->counters.pruned_upward, seq->counters.pruned_upward);
        EXPECT_EQ(par->counters.pruned_downward,
                  seq->counters.pruned_downward);
        EXPECT_EQ(par->counters.steps, seq->counters.steps);

        // (4) The whole lattice is accounted for.
        EXPECT_EQ(par->counters.od_evaluations +
                      par->counters.pruned_upward +
                      par->counters.pruned_downward,
                  lattice);

        // (5) The memoised set is exactly the sequential run's (same
        // masks, same values), and each fresh evaluation is counted once.
        EXPECT_EQ(MemoisedValues(par_od, d), seq_memo);
        EXPECT_EQ(par_od.num_evaluations(), par->counters.od_evaluations);
      }
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
// dimensions, exact duplicates, and tombstoned rows. Every pruning strategy,
// sequential and parallel, must still match the exhaustive oracle exactly —
// there is no "close enough" when ODs are engineered to sit at T ± 3%.
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
  service::ThreadPool pool(4);

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
      for (bool parallel : {false, true}) {
        SearchExecution exec;
        exec.pool = parallel ? &pool : nullptr;

        OdEvaluator od(engine, ds.Row(query), scenario.k, query);
        auto run = strategy->Run(&od, scenario.threshold, exec);
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
