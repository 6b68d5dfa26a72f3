// Property suite for the lattice store: states, seeds, per-level tallies,
// undecided enumeration order, and the workload counters feeding TSF, on
// small lattices worked by hand and on high-d seed shapes whose tallies
// are plain binomials.

#include "src/lattice/lattice_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/combinatorics.h"

namespace hos::lattice {
namespace {

Subspace S(std::initializer_list<int> one_based) {
  return Subspace::FromOneBased(std::vector<int>(one_based));
}

std::unique_ptr<LatticeStore> Make(int d) {
  auto store = MakeLatticeStore(d);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

TEST(LatticeStoreTest, FreshStateAllUndecided) {
  auto state = Make(4);
  EXPECT_EQ(state->num_dims(), 4);
  for (int m = 1; m <= 4; ++m) {
    EXPECT_EQ(state->UndecidedCount(m), Binomial(4, m));
  }
  EXPECT_FALSE(state->AllDecided());
  EXPECT_EQ(state->StateOf(S({1, 2})), SubspaceState::kUndecided);
}

TEST(LatticeStoreTest, MarkEvaluatedOutlier) {
  auto state = Make(4);
  state->MarkEvaluated(S({1, 3}), /*outlier=*/true);
  EXPECT_EQ(state->StateOf(S({1, 3})), SubspaceState::kEvaluatedOutlier);
  EXPECT_TRUE(state->IsOutlying(S({1, 3})));
  EXPECT_EQ(state->EvaluatedOutliers(2), 1u);
  EXPECT_EQ(state->UndecidedCount(2), Binomial(4, 2) - 1);
  ASSERT_EQ(state->minimal_outlier_seeds().size(), 1u);
}

TEST(LatticeStoreTest, UpwardPruningMarksSupersets) {
  auto state = Make(4);
  state->MarkEvaluated(S({1, 3}), true);
  state->Propagate();
  // Supersets of [1,3]: [1,2,3], [1,3,4], [1,2,3,4].
  EXPECT_EQ(state->StateOf(S({1, 2, 3})), SubspaceState::kInferredOutlier);
  EXPECT_EQ(state->StateOf(S({1, 3, 4})), SubspaceState::kInferredOutlier);
  EXPECT_EQ(state->StateOf(S({1, 2, 3, 4})),
            SubspaceState::kInferredOutlier);
  // Non-supersets untouched.
  EXPECT_EQ(state->StateOf(S({1, 2})), SubspaceState::kUndecided);
  EXPECT_EQ(state->StateOf(S({2, 3, 4})), SubspaceState::kUndecided);
  EXPECT_EQ(state->InferredOutliers(3), 2u);
  EXPECT_EQ(state->InferredOutliers(4), 1u);
}

TEST(LatticeStoreTest, DownwardPruningMarksSubsets) {
  auto state = Make(4);
  state->MarkEvaluated(S({1, 2, 3}), false);
  state->Propagate();
  EXPECT_EQ(state->StateOf(S({1, 2})), SubspaceState::kInferredNonOutlier);
  EXPECT_EQ(state->StateOf(S({1, 3})), SubspaceState::kInferredNonOutlier);
  EXPECT_EQ(state->StateOf(S({2, 3})), SubspaceState::kInferredNonOutlier);
  EXPECT_EQ(state->StateOf(S({1})), SubspaceState::kInferredNonOutlier);
  EXPECT_EQ(state->StateOf(S({2})), SubspaceState::kInferredNonOutlier);
  EXPECT_EQ(state->StateOf(S({3})), SubspaceState::kInferredNonOutlier);
  // [4] and everything containing 4 untouched.
  EXPECT_EQ(state->StateOf(S({4})), SubspaceState::kUndecided);
  EXPECT_EQ(state->StateOf(S({1, 4})), SubspaceState::kUndecided);
}

TEST(LatticeStoreTest, PendingSeedsApplyOnlyAtPropagate) {
  // Between MarkEvaluated and Propagate a covered mask must still read
  // undecided — inference waits for the propagation barrier.
  auto state = Make(4);
  state->MarkEvaluated(S({1}), true);
  EXPECT_EQ(state->StateOf(S({1, 2})), SubspaceState::kUndecided);
  EXPECT_EQ(state->InferredOutliers(2), 0u);
  state->Propagate();
  EXPECT_EQ(state->StateOf(S({1, 2})), SubspaceState::kInferredOutlier);
}

TEST(LatticeStoreTest, PrioritisesOutlierOverNonOutlierResolution) {
  // A subspace can be superset of an outlier seed and subset of a
  // non-outlier seed only if the lattice is inconsistent; with consistent
  // OD monotonicity this cannot happen. Here we merely check both pending
  // lists apply in one Propagate call.
  auto state = Make(4);
  state->MarkEvaluated(S({1}), true);       // prunes supersets upward
  state->MarkEvaluated(S({2, 3}), false);   // prunes subsets downward
  state->Propagate();
  EXPECT_TRUE(state->IsOutlying(S({1, 4})));
  EXPECT_EQ(state->StateOf(S({2})), SubspaceState::kInferredNonOutlier);
  EXPECT_EQ(state->StateOf(S({3})), SubspaceState::kInferredNonOutlier);
}

TEST(LatticeStoreTest, MinimalSeedSetStaysMinimal) {
  auto state = Make(4);
  state->MarkEvaluated(S({1, 2, 3}), true);
  EXPECT_EQ(state->minimal_outlier_seeds().size(), 1u);
  // A subset seed replaces the superset.
  state->MarkEvaluated(S({1, 2}), true);
  ASSERT_EQ(state->minimal_outlier_seeds().size(), 1u);
  EXPECT_EQ(state->minimal_outlier_seeds()[0], S({1, 2}));
  // An incomparable seed is added.
  state->MarkEvaluated(S({3, 4}), true);
  EXPECT_EQ(state->minimal_outlier_seeds().size(), 2u);
  // A superset of an existing seed is not added.
  state->MarkEvaluated(S({1, 2, 4}), true);
  EXPECT_EQ(state->minimal_outlier_seeds().size(), 2u);
}

TEST(LatticeStoreTest, MaximalNonOutlierSeedsStayMaximal) {
  auto state = Make(4);
  state->MarkEvaluated(S({1, 2}), false);
  state->MarkEvaluated(S({1, 2, 3}), false);  // superset replaces subset
  ASSERT_EQ(state->maximal_non_outlier_seeds().size(), 1u);
  EXPECT_EQ(state->maximal_non_outlier_seeds()[0], S({1, 2, 3}));
  state->MarkEvaluated(S({1, 4}), false);  // incomparable
  EXPECT_EQ(state->maximal_non_outlier_seeds().size(), 2u);
}

TEST(LatticeStoreTest, UndecidedMasksFiltersDecidedMasks) {
  auto state = Make(3);
  state->MarkEvaluated(S({1}), true);
  state->Propagate();
  const auto level2 = state->UndecidedMasks(2);
  // [1,2] and [1,3] are inferred outliers; only [2,3] remains.
  ASSERT_EQ(level2.size(), 1u);
  EXPECT_EQ(level2[0], S({2, 3}).mask());
  EXPECT_EQ(state->UndecidedCount(2), 1u);
}

TEST(LatticeStoreTest, UndecidedMasksIsAStableSnapshot) {
  // Regression for the old LatticeState::Undecided() reference-invalidation
  // hazard: the returned vector is owned by the caller and must survive
  // arbitrary later mutation of the store.
  auto state = Make(4);
  const std::vector<uint64_t> before = state->UndecidedMasks(2);
  ASSERT_EQ(before.size(), Binomial(4, 2));
  const std::vector<uint64_t> copy = before;

  state->MarkEvaluated(S({1}), true);
  state->MarkEvaluated(S({2, 3}), false);
  state->Propagate();
  state->MarkEvaluated(S({2, 4}), false);

  EXPECT_EQ(before, copy);  // snapshot untouched by the mutations
  // A fresh snapshot reflects the new state and is strictly smaller.
  EXPECT_LT(state->UndecidedMasks(2).size(), before.size());
}

TEST(LatticeStoreTest, UndecidedEnumerationIsAscending) {
  auto state = Make(5);
  state->MarkEvaluated(S({2}), false);
  state->Propagate();
  for (int m = 1; m <= 5; ++m) {
    const auto masks = state->UndecidedMasks(m);
    EXPECT_EQ(masks.size(), state->UndecidedCount(m));
    for (size_t i = 1; i < masks.size(); ++i) {
      EXPECT_LT(masks[i - 1], masks[i]);
    }
  }
}

TEST(LatticeStoreTest, WorkloadCounters) {
  auto state = Make(4);
  // Initially: C_down_left(3) = C(4,1)*1 + C(4,2)*2 = 16,
  //            C_up_left(3)   = C(4,4)*4 = 4.
  EXPECT_EQ(state->RemainingWorkloadBelow(3), 16u);
  EXPECT_EQ(state->RemainingWorkloadAbove(3), 4u);
  state->MarkEvaluated(S({1}), true);
  state->Propagate();  // prunes upward: 3 of level 2, 3 of level 3, 1 of 4
  EXPECT_EQ(state->RemainingWorkloadBelow(3),
            3u * 1 + 3u * 2);  // 3 singles + 3 pairs left
  EXPECT_EQ(state->RemainingWorkloadAbove(3), 0u);
}

TEST(LatticeStoreTest, FullyDecidedLattice) {
  auto state = Make(3);
  state->MarkEvaluated(S({1}), true);
  state->MarkEvaluated(S({2}), false);
  state->MarkEvaluated(S({3}), false);
  state->Propagate();
  // Remaining undecided: [2,3].
  EXPECT_FALSE(state->AllDecided());
  state->MarkEvaluated(S({2, 3}), false);
  state->Propagate();
  EXPECT_TRUE(state->AllDecided());
  // Outliers at each level: level 1: [1]; level 2: [1,2],[1,3]; level 3: all.
  EXPECT_EQ(state->OutliersAtLevel(1), 1u);
  EXPECT_EQ(state->OutliersAtLevel(2), 2u);
  EXPECT_EQ(state->OutliersAtLevel(3), 1u);
}

TEST(LatticeStoreTest, CounterClosureOverFullLattice) {
  // evals + inferred == 2^d - 1 once everything is decided, level by level.
  for (int d = 2; d <= 8; ++d) {
    auto state = Make(d);
    for (int m = 1; m <= d; ++m) {
      // Monotone verdict: outlier iff the mask contains dimension 0.
      for (uint64_t mask : state->UndecidedMasks(m)) {
        state->MarkEvaluated(Subspace(mask), (mask & 1) != 0);
      }
      state->Propagate();
    }
    ASSERT_TRUE(state->AllDecided());
    uint64_t decided = 0;
    for (int m = 1; m <= d; ++m) {
      decided += state->EvaluatedOutliers(m) +
                 state->EvaluatedNonOutliers(m) + state->InferredOutliers(m) +
                 state->InferredNonOutliers(m);
      EXPECT_EQ(state->UndecidedCount(m), 0u);
    }
    EXPECT_EQ(decided, (uint64_t{1} << d) - 1) << "d=" << d;
  }
}

TEST(MakeLatticeStoreTest, BuildsAFreshStoreAtEveryDimensionality) {
  for (int d : {1, 4, 22, 23, 32, kMaxLatticeDims}) {
    auto store = MakeLatticeStore(d);
    ASSERT_TRUE(store.ok()) << "d=" << d;
    EXPECT_EQ(store.value()->num_dims(), d);
    EXPECT_EQ(store.value()->UndecidedCount(1), static_cast<uint64_t>(d));
    EXPECT_EQ(store.value()->allocated_states(), 0u);
  }
}

TEST(MakeLatticeStoreTest, RejectsOutOfRangeDims) {
  for (int d : {0, -3, kMaxLatticeDims + 1}) {
    auto store = MakeLatticeStore(d);
    ASSERT_FALSE(store.ok()) << "d=" << d;
    EXPECT_EQ(store.status().code(), StatusCode::kInvalidArgument);
    // The message names the supported range.
    EXPECT_NE(store.status().ToString().find(
                  "1.." + std::to_string(kMaxLatticeDims)),
              std::string::npos);
  }
}

TEST(HighDimLatticeStoreTest, HighDimensionalLatticeIsCheap) {
  // d = 32: a flat state array would need 2^32 bytes; the store allocates
  // only what is touched. All 32 singletons outlying decides the whole
  // lattice in one propagation.
  auto made = MakeLatticeStore(32);
  ASSERT_TRUE(made.ok());
  auto& state = *made.value();
  EXPECT_EQ(state.UndecidedCount(16), Binomial(32, 16));

  for (uint64_t mask : state.UndecidedMasks(1)) {
    state.MarkEvaluated(Subspace(mask), true);
  }
  state.Propagate();
  ASSERT_TRUE(state.AllDecided());
  EXPECT_EQ(state.OutliersAtLevel(16), Binomial(32, 16));
  EXPECT_EQ(state.minimal_outlier_seeds().size(), 32u);
  EXPECT_TRUE(state.IsOutlying(Subspace::Full(32)));
  EXPECT_EQ(state.allocated_states(), 32u);  // only the evaluated band
}

TEST(HighDimLatticeStoreTest, HighDimensionalMixedSeeds) {
  // d = 40, a monotone band: the pair {1,2} outlying (so its up-closure
  // is outlying) and the 38-dim subspace {3..40} non-outlying (so its
  // down-closure is non-outlying). The two closures are disjoint; what is
  // left undecided at level m is exactly the masks containing one of dims
  // 1,2 but not both: 2 * C(38, m-1). Tallies must follow the closed-form
  // closure counts at every level, enumerable or not.
  const int d = 40;
  auto state = MakeLatticeStore(d).value();
  std::vector<int> rest;
  for (int dim = 3; dim <= d; ++dim) rest.push_back(dim);
  state->MarkEvaluated(Subspace::FromOneBased({1, 2}), true);
  state->MarkEvaluated(Subspace::FromOneBased(rest), false);
  state->Propagate();
  for (int m = 1; m <= d; ++m) {
    const uint64_t up = m >= 2 ? Binomial(d - 2, m - 2) : 0;
    const uint64_t down = Binomial(d - 2, m);
    EXPECT_EQ(state->OutliersAtLevel(m), up) << m;
    EXPECT_EQ(state->InferredNonOutliers(m) +
                  state->EvaluatedNonOutliers(m),
              down)
        << m;
    EXPECT_EQ(state->UndecidedCount(m), 2 * Binomial(d - 2, m - 1)) << m;
  }
  EXPECT_EQ(state->StateOf(Subspace::FromOneBased({5})),
            SubspaceState::kInferredNonOutlier);
  EXPECT_EQ(state->StateOf(Subspace::FromOneBased({1, 2, 7})),
            SubspaceState::kInferredOutlier);
  EXPECT_EQ(state->StateOf(Subspace::FromOneBased({1, 7})),
            SubspaceState::kUndecided);
}

// The two seed shapes a high-d inlier or all-singleton outlier query
// leaves after one wave, up to the kMaxLatticeDims cap. Each decides the
// whole lattice in one Propagate, and every per-level tally is a plain
// binomial.
class HighDimSeedShapeTest : public ::testing::TestWithParam<int> {};

TEST_P(HighDimSeedShapeTest, FullSpaceNonOutlierDecidesEveryLevel) {
  const int d = GetParam();
  auto state = MakeLatticeStore(d).value();
  state->MarkEvaluated(Subspace::Full(d), /*outlier=*/false);
  state->Propagate();
  ASSERT_TRUE(state->AllDecided());
  for (int m = 1; m < d; ++m) {
    EXPECT_EQ(state->InferredNonOutliers(m), Binomial(d, m)) << "m=" << m;
    EXPECT_EQ(state->InferredOutliers(m), 0u) << "m=" << m;
    EXPECT_EQ(state->UndecidedCount(m), 0u) << "m=" << m;
  }
  EXPECT_EQ(state->EvaluatedNonOutliers(d), 1u);
  EXPECT_EQ(state->InferredNonOutliers(d), 0u);
  EXPECT_EQ(state->StateOf(Subspace::FromOneBased({1, d})),
            SubspaceState::kInferredNonOutlier);
}

TEST_P(HighDimSeedShapeTest, AllSingletonsOutlyingDecideEveryLevel) {
  const int d = GetParam();
  auto state = MakeLatticeStore(d).value();
  for (uint64_t mask : state->UndecidedMasks(1)) {
    state->MarkEvaluated(Subspace(mask), /*outlier=*/true);
  }
  state->Propagate();
  ASSERT_TRUE(state->AllDecided());
  EXPECT_EQ(state->EvaluatedOutliers(1), static_cast<uint64_t>(d));
  EXPECT_EQ(state->InferredOutliers(1), 0u);
  for (int m = 2; m <= d; ++m) {
    EXPECT_EQ(state->InferredOutliers(m), Binomial(d, m)) << "m=" << m;
    EXPECT_EQ(state->InferredNonOutliers(m), 0u) << "m=" << m;
    EXPECT_EQ(state->UndecidedCount(m), 0u) << "m=" << m;
  }
  EXPECT_EQ(state->minimal_outlier_seeds().size(), static_cast<size_t>(d));
  EXPECT_TRUE(state->IsOutlying(Subspace::Full(d)));
}

INSTANTIATE_TEST_SUITE_P(Dims, HighDimSeedShapeTest,
                         ::testing::Values(23, 32, kMaxLatticeDims),
                         [](const auto& info) {
                           return std::string("d").append(
                               std::to_string(info.param));
                         });

TEST(IsOutlierStateTest, Classification) {
  EXPECT_TRUE(IsOutlierState(SubspaceState::kEvaluatedOutlier));
  EXPECT_TRUE(IsOutlierState(SubspaceState::kInferredOutlier));
  EXPECT_FALSE(IsOutlierState(SubspaceState::kEvaluatedNonOutlier));
  EXPECT_FALSE(IsOutlierState(SubspaceState::kInferredNonOutlier));
  EXPECT_FALSE(IsOutlierState(SubspaceState::kUndecided));
  EXPECT_FALSE(IsDecided(SubspaceState::kUndecided));
  EXPECT_TRUE(IsDecided(SubspaceState::kInferredOutlier));
}

}  // namespace
}  // namespace hos::lattice
