// High-dimensional smoke test (tier-1): a complete d = 32 query through
// HosMiner::Query on the sparse lattice backend. The dense backend cannot
// even allocate its state here (2^32 bytes per query); the sparse store
// only ever materialises the frontier the search touches.
//
// The dataset is built so the search stays in the frontier band the sparse
// backend is designed for: a very tight cluster plus one point displaced
// in every dimension. For that point every singleton subspace is outlying
// (and by monotonicity so is everything else), so whichever levels TSF
// ranks first, the search only ever evaluates the boundary band — the
// full space and/or the 32 singletons — and one propagation prunes the
// remaining ~2^32 subspaces. For a cluster point the full space itself is
// non-outlying, so downward pruning decides the whole lattice at once —
// also at d = 58 (kMaxLatticeDims), where the lattice holds 2^58 - 1
// subspaces. Learning is disabled (each sample would cost a full lattice
// search) and the threshold is explicit.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/hos_miner.h"
#include "src/data/dataset.h"
#include "src/lattice/lattice_store.h"

namespace hos::core {
namespace {

constexpr int kDims = 32;

data::Dataset MakeHighDimDataset(int dims = kDims) {
  data::Dataset ds(dims);
  // 120 points in a very tight cluster around 0.2 (deterministic jitter of
  // 1% of the eventual normalised range, so even the *full-space* OD of a
  // cluster point stays far below the threshold), plus one outlier at 1.0
  // in every dimension.
  for (int i = 0; i < 120; ++i) {
    std::vector<double> row(dims);
    for (int j = 0; j < dims; ++j) {
      row[j] = 0.2 + 0.008 * (((i * 31 + j * 17) % 10) / 10.0);
    }
    ds.Append(row);
  }
  ds.Append(std::vector<double>(dims, 1.0));
  return ds;
}

HosMinerConfig HighDimConfig() {
  HosMinerConfig config;
  config.k = 4;
  // Cluster full-space OD <= k * sqrt(d) * jitter ~= 0.23; outlier
  // singleton OD ~= k * 0.99 ~= 3.9. T = 1 separates them with margin.
  config.threshold = 1.0;
  config.sample_size = 0;  // no learning: flat priors
  config.index = IndexKind::kLinearScan;
  return config;
}

TEST(HighDimSparseSmokeTest, D32QueryCompletesOnTheSparseBackend) {
  const data::PointId outlier_id = 120;
  auto miner = HosMiner::Build(MakeHighDimDataset(), HighDimConfig());
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();
  EXPECT_EQ(miner->num_dims(), kDims);

  auto result = miner->Query(outlier_id);  // QueryOptions default: kAuto
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Every singleton is outlying, so the minimal answer is the 32
  // singletons and the whole lattice is outlying.
  ASSERT_EQ(result->outlying_subspaces().size(), 32u);
  for (int dim = 0; dim < kDims; ++dim) {
    EXPECT_EQ(result->outlying_subspaces()[dim].mask(), uint64_t{1} << dim);
  }
  // The search may only ever touch the boundary band (full space +
  // singletons); everything else must come from upward pruning, and the
  // whole 2^32 - 1 lattice must be accounted for.
  const auto& counters = result->outcome.counters;
  EXPECT_LE(counters.od_evaluations, 64u);
  EXPECT_EQ(counters.pruned_downward, 0u);
  EXPECT_EQ(counters.od_evaluations + counters.pruned_upward +
                counters.pruned_downward,
            (uint64_t{1} << kDims) - 1);
  EXPECT_TRUE(result->is_outlier_anywhere());

  // A cluster point is not an outlier anywhere: its full-space OD is below
  // T, so once level 32 is evaluated (TSF ranks it first — DSF(32) is the
  // largest saving factor on a fresh flat-prior lattice) downward pruning
  // decides everything else at once.
  auto inlier = miner->Query(0);
  ASSERT_TRUE(inlier.ok()) << inlier.status().ToString();
  EXPECT_FALSE(inlier->is_outlier_anywhere());
  EXPECT_LE(inlier->outcome.counters.od_evaluations, 64u);
  EXPECT_EQ(inlier->outcome.counters.od_evaluations +
                inlier->outcome.counters.pruned_upward +
                inlier->outcome.counters.pruned_downward,
            (uint64_t{1} << kDims) - 1);
}

TEST(HighDimSparseSmokeTest, CapDimensionalityInlierQueryIsOneEvaluation) {
  // d = kMaxLatticeDims: the cluster point's full-space OD (<= k * sqrt(58)
  // * jitter ~= 0.3) stays below T, so the full space is the one subspace
  // evaluated and downward pruning decides the other 2^58 - 2.
  const int d = lattice::kMaxLatticeDims;
  auto miner = HosMiner::Build(MakeHighDimDataset(d), HighDimConfig());
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();
  ASSERT_EQ(miner->num_dims(), d);

  auto inlier = miner->Query(0);
  ASSERT_TRUE(inlier.ok()) << inlier.status().ToString();
  EXPECT_FALSE(inlier->is_outlier_anywhere());
  const auto& counters = inlier->outcome.counters;
  EXPECT_EQ(counters.od_evaluations, 1u);
  EXPECT_EQ(counters.pruned_upward, 0u);
  EXPECT_EQ(counters.od_evaluations + counters.pruned_upward +
                counters.pruned_downward,
            (uint64_t{1} << d) - 1);
}

TEST(HighDimSparseSmokeTest, ForcedDenseBackendIsRejected) {
  auto miner = HosMiner::Build(MakeHighDimDataset(), HighDimConfig());
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();
  QueryOptions options;
  options.lattice_backend = lattice::LatticeBackend::kDense;
  auto result = miner->Query(120, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hos::core
