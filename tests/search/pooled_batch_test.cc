// The frontier runner's pool fan-out on fused blocks: a block whose
// distinct masks are evaluated on a 4-thread search pool must leave every
// point exactly where a sequential one-point run leaves it — answers, the
// OD values memoised, and every counter that is a function of the point's
// own walk. The pool writes values into per-slot storage and the calling
// thread deposits them in canonical mask order, so neither chunking nor
// completion order may show up here.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/hos_miner.h"
#include "src/data/generator.h"
#include "src/knn/linear_scan.h"
#include "src/search/batch_frontier.h"
#include "src/search/od_evaluator.h"
#include "src/search/subspace_search.h"
#include "src/service/thread_pool.h"

namespace hos::search {
namespace {

/// A SharedOdStore that records every value written to it, so a miner-level
/// run's fresh evaluations can be compared mask by mask. Thread-safe: pool
/// workers probe and write it concurrently.
class RecordingStore : public SharedOdStore {
 public:
  bool Lookup(data::PointId id, uint64_t mask, double* od) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = values_.find({id, mask});
    if (it == values_.end()) return false;
    *od = it->second;
    return true;
  }
  void Store(data::PointId id, uint64_t mask, double od) override {
    std::lock_guard<std::mutex> lock(mu_);
    values_[{id, mask}] = od;
  }
  std::map<std::pair<data::PointId, uint64_t>, double> values() const {
    std::lock_guard<std::mutex> lock(mu_);
    return values_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<data::PointId, uint64_t>, double> values_;
};

data::GeneratedData MakePlanted(uint64_t seed, size_t n, int d) {
  Rng rng(seed);
  data::SubspaceOutlierSpec spec;
  spec.num_points = n;
  spec.num_dims = d;
  spec.planted_subspaces = {Subspace::FromOneBased({1, 2})};
  if (d >= 5) {
    spec.planted_subspaces.push_back(Subspace::FromOneBased({3, 4, 5}));
  }
  spec.displacement = 0.5;
  auto generated = data::GenerateSubspaceOutliers(spec, &rng);
  EXPECT_TRUE(generated.ok());
  return std::move(generated).value();
}

void ExpectWalkIdentical(const SearchOutcome& pooled,
                         const SearchOutcome& sequential,
                         const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(pooled.minimal_outlying_subspaces,
            sequential.minimal_outlying_subspaces);
  EXPECT_EQ(pooled.evaluated_outliers, sequential.evaluated_outliers);
  EXPECT_EQ(pooled.outlier_fraction, sequential.outlier_fraction);
  EXPECT_EQ(pooled.counters.od_evaluations,
            sequential.counters.od_evaluations);
  EXPECT_EQ(pooled.counters.pruned_upward, sequential.counters.pruned_upward);
  EXPECT_EQ(pooled.counters.pruned_downward,
            sequential.counters.pruned_downward);
  EXPECT_EQ(pooled.counters.steps, sequential.counters.steps);
  EXPECT_EQ(pooled.counters.bound_decisions,
            sequential.counters.bound_decisions);
}

class PooledFusedBatchTest : public ::testing::TestWithParam<core::IndexKind> {
};

// The miner-level contract: QueryBatchFused on a 4-thread search pool
// against a sequential per-point Query loop, each through its own fresh
// recording store so the memoised OD values can be compared bitwise.
TEST_P(PooledFusedBatchTest, MatchesSequentialPerPointQueries) {
  auto generated = MakePlanted(9600, 220, 7);
  core::HosMinerConfig config;
  config.index = GetParam();
  config.k = 4;
  auto miner = core::HosMiner::Build(std::move(generated.dataset), config);
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();

  std::vector<data::PointId> ids;
  for (data::PointId id = 0; id < 30; ++id) ids.push_back(id);
  for (const auto& outlier : generated.outliers) ids.push_back(outlier.id);

  service::ThreadPool pool(4);
  for (lattice::LatticeBackend backend :
       {lattice::LatticeBackend::kDense, lattice::LatticeBackend::kSparse}) {
    SCOPED_TRACE("backend=" + std::to_string(static_cast<int>(backend)));
    RecordingStore pooled_store;
    core::QueryOptions pooled_options;
    pooled_options.lattice_backend = backend;
    pooled_options.search_pool = &pool;
    pooled_options.search_threads = 4;
    pooled_options.od_store = &pooled_store;
    auto pooled = miner->QueryBatchFused(ids, pooled_options);
    ASSERT_EQ(pooled.size(), ids.size());

    RecordingStore sequential_store;
    core::QueryOptions sequential_options;
    sequential_options.lattice_backend = backend;
    sequential_options.od_store = &sequential_store;
    for (size_t i = 0; i < ids.size(); ++i) {
      auto sequential = miner->Query(ids[i], sequential_options);
      ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();
      ASSERT_TRUE(pooled[i].ok()) << pooled[i].status().ToString();
      ExpectWalkIdentical(pooled[i]->outcome, sequential->outcome,
                          "id " + std::to_string(ids[i]));
      EXPECT_EQ(pooled[i]->dataset_version, sequential->dataset_version);
    }
    // Every fresh evaluation went through the store exactly once per
    // (point, mask), with bitwise-identical values.
    EXPECT_EQ(pooled_store.values(), sequential_store.values());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, PooledFusedBatchTest,
    ::testing::Values(core::IndexKind::kLinearScan, core::IndexKind::kXTree),
    [](const auto& info) {
      return info.param == core::IndexKind::kLinearScan ? "linear" : "xtree";
    });

// The runner-level contract, with direct access to each point's memo: a
// pooled block under every level order against the one-point sequential
// strategy, mask by mask over the whole lattice.
TEST(PooledFusedBatchTest, PooledBlocksMatchSequentialWalksUnderEveryOrder) {
  const int d = 8;
  auto generated = MakePlanted(9601, 180, d);
  const data::Dataset& ds = generated.dataset;
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  const lattice::PruningPriors priors = lattice::PruningPriors::Flat(d);
  constexpr int kK = 4;
  constexpr double kThreshold = 0.9;
  const uint64_t lattice_top = (uint64_t{1} << d) - 1;

  const DynamicSubspaceSearch dynamic(d, priors);
  const BottomUpSearch bottom_up(d);
  const TopDownSearch top_down(d);
  const std::pair<BatchFrontierRunner, const SubspaceSearch*> orders[] = {
      {BatchFrontierRunner(d, &priors), &dynamic},
      {BatchFrontierRunner(d, BatchFrontierRunner::LevelOrder::kBottomUp),
       &bottom_up},
      {BatchFrontierRunner(d, BatchFrontierRunner::LevelOrder::kTopDown),
       &top_down},
  };

  std::vector<data::PointId> ids;
  for (data::PointId id = 0; id < 12; ++id) ids.push_back(id);
  for (const auto& outlier : generated.outliers) ids.push_back(outlier.id);

  service::ThreadPool pool(4);
  SearchExecution pooled;
  pooled.pool = &pool;
  for (const auto& [runner, strategy] : orders) {
    SCOPED_TRACE(std::string(runner.name()));
    EXPECT_EQ(runner.name(), strategy->name());
    std::vector<OdEvaluator> evaluators;
    std::vector<OdEvaluator*> pointers;
    evaluators.reserve(ids.size());
    for (data::PointId id : ids) {
      evaluators.emplace_back(engine, ds.Row(id), kK, id);
      pointers.push_back(&evaluators.back());
    }
    auto block = runner.Run(pointers, kThreshold, pooled);
    ASSERT_EQ(block.size(), ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      const std::string context = "id " + std::to_string(ids[i]);
      OdEvaluator seq_od(engine, ds.Row(ids[i]), kK, ids[i]);
      auto sequential = strategy->Run(&seq_od, kThreshold);
      ASSERT_TRUE(sequential.ok()) << context;
      ASSERT_TRUE(block[i].ok()) << block[i].status().ToString();
      ExpectWalkIdentical(block[i].value(), sequential.value(), context);
      EXPECT_EQ(pointers[i]->num_evaluations(), seq_od.num_evaluations())
          << context;
      for (uint64_t mask = 1; mask <= lattice_top; ++mask) {
        double pooled_value = 0.0, seq_value = 0.0;
        const bool pooled_has = pointers[i]->LookupLocal(mask, &pooled_value);
        const bool seq_has = seq_od.LookupLocal(mask, &seq_value);
        ASSERT_EQ(pooled_has, seq_has) << context << " mask " << mask;
        if (pooled_has) {
          ASSERT_EQ(pooled_value, seq_value) << context << " mask " << mask;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hos::search
