// The shared reference lattices (lattice::FreshLattice and
// lattice::FullSpaceInlierLattice) stand in for the private store a walk
// would otherwise build, so every read a walk makes of them must equal
// that store's: per-level tallies, undecided counts and enumerations, and
// the seed lists AssembleOutcome copies. They are built on first use from
// any thread, so the first use is raced too.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/combinatorics.h"
#include "src/common/subspace.h"
#include "src/lattice/lattice_store.h"

namespace hos::lattice {
namespace {

/// A store built by the calls the inlier reference lattice is defined by.
std::unique_ptr<LatticeStore> BuildInlierLattice(int d,
                                                 LatticeBackend backend) {
  auto store = MakeLatticeStore(d, backend).value();
  store->MarkEvaluated(Subspace::Full(d), false);
  store->Propagate();
  return store;
}

void ExpectSameLattice(const LatticeStore& shared, const LatticeStore& built) {
  ASSERT_EQ(shared.num_dims(), built.num_dims());
  EXPECT_EQ(shared.name(), built.name());
  const int d = shared.num_dims();
  for (int m = 1; m <= d; ++m) {
    SCOPED_TRACE("m=" + std::to_string(m));
    EXPECT_EQ(shared.UndecidedCount(m), built.UndecidedCount(m));
    EXPECT_EQ(shared.EvaluatedOutliers(m), built.EvaluatedOutliers(m));
    EXPECT_EQ(shared.EvaluatedNonOutliers(m), built.EvaluatedNonOutliers(m));
    EXPECT_EQ(shared.InferredOutliers(m), built.InferredOutliers(m));
    EXPECT_EQ(shared.InferredNonOutliers(m), built.InferredNonOutliers(m));
    EXPECT_EQ(shared.RemainingWorkloadBelow(m), built.RemainingWorkloadBelow(m));
    EXPECT_EQ(shared.RemainingWorkloadAbove(m), built.RemainingWorkloadAbove(m));
  }
  EXPECT_EQ(shared.AllDecided(), built.AllDecided());
  EXPECT_EQ(shared.minimal_outlier_seeds(), built.minimal_outlier_seeds());
  EXPECT_EQ(shared.maximal_non_outlier_seeds(),
            built.maximal_non_outlier_seeds());
  EXPECT_EQ(shared.evaluated_outlier_list(), built.evaluated_outlier_list());
  const Subspace full = Subspace::Full(d);
  EXPECT_EQ(shared.StateOf(full), built.StateOf(full));
  EXPECT_EQ(shared.StateOf(Subspace::FromOneBased({1})),
            built.StateOf(Subspace::FromOneBased({1})));
}

// Declared first: in gtest's default order this is the process's first use
// of kDims, so the two threads really race the once-per-d construction
// (the lattice label runs under TSan). Both must see the same, fully built
// lattices, and read them concurrently afterwards.
TEST(ReferenceLatticeTest, ConcurrentFirstUseBuildsOneLatticePair) {
  constexpr int kDims = 23;
  std::atomic<int> arrived{0};
  const LatticeStore* fresh[2] = {nullptr, nullptr};
  const LatticeStore* inlier[2] = {nullptr, nullptr};
  std::vector<uint64_t> level1[2];
  bool all_decided[2] = {false, false};
  auto take = [&](int t) {
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
    fresh[t] = &FreshLattice(kDims);
    inlier[t] = &FullSpaceInlierLattice(kDims);
    level1[t] = fresh[t]->UndecidedMasks(1);
    all_decided[t] = inlier[t]->AllDecided();
  };
  std::thread first(take, 0);
  std::thread second(take, 1);
  first.join();
  second.join();

  EXPECT_EQ(fresh[0], fresh[1]);
  EXPECT_EQ(inlier[0], inlier[1]);
  EXPECT_NE(fresh[0], inlier[0]);
  EXPECT_EQ(level1[0], level1[1]);
  EXPECT_EQ(level1[0].size(), static_cast<size_t>(kDims));
  EXPECT_TRUE(all_decided[0]);
  EXPECT_TRUE(all_decided[1]);
  ExpectSameLattice(*fresh[0], *MakeLatticeStore(kDims).value());
  ExpectSameLattice(*inlier[0],
                    *BuildInlierLattice(kDims, LatticeBackend::kSparse));
}

TEST(ReferenceLatticeTest, EqualStoresBuiltByTheSameCallsAtEveryDimensionality) {
  for (int d = 1; d <= kMaxLatticeDims; ++d) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const LatticeStore& fresh = FreshLattice(d);
    const LatticeStore& inlier = FullSpaceInlierLattice(d);
    // Built once: a second use returns the same lattices.
    EXPECT_EQ(&fresh, &FreshLattice(d));
    EXPECT_EQ(&inlier, &FullSpaceInlierLattice(d));

    ExpectSameLattice(fresh, *MakeLatticeStore(d).value());
    ExpectSameLattice(inlier, *BuildInlierLattice(d, LatticeBackend::kSparse));

    // What a full-space inlier's outcome is assembled from: one evaluated
    // non-outlier, the other 2^d - 2 subspaces inferred non-outlying.
    EXPECT_FALSE(fresh.AllDecided());
    EXPECT_TRUE(inlier.AllDecided());
    EXPECT_TRUE(inlier.minimal_outlier_seeds().empty());
    EXPECT_EQ(inlier.maximal_non_outlier_seeds(),
              std::vector<Subspace>{Subspace::Full(d)});
    uint64_t inferred = 0;
    for (int m = 1; m <= d; ++m) {
      EXPECT_EQ(fresh.UndecidedCount(m), Binomial(d, m));
      EXPECT_EQ(inlier.OutliersAtLevel(m), 0u);
      inferred += inlier.InferredNonOutliers(m);
    }
    EXPECT_EQ(inlier.EvaluatedNonOutliers(d), 1u);
    EXPECT_EQ(inferred, (uint64_t{1} << d) - 2);
  }
}

TEST(ReferenceLatticeTest, UndecidedMasksMatchTheDenseStore) {
  for (int d = 1; d <= 16; ++d) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const auto dense_fresh = MakeLatticeStore(d, LatticeBackend::kDense).value();
    const auto dense_inlier = BuildInlierLattice(d, LatticeBackend::kDense);
    for (int m = 1; m <= d; ++m) {
      SCOPED_TRACE("m=" + std::to_string(m));
      EXPECT_EQ(FreshLattice(d).UndecidedMasks(m),
                dense_fresh->UndecidedMasks(m));
      EXPECT_EQ(FullSpaceInlierLattice(d).UndecidedMasks(m),
                dense_inlier->UndecidedMasks(m));
      EXPECT_EQ(FreshLattice(d).UndecidedCount(m),
                dense_fresh->UndecidedCount(m));
      EXPECT_EQ(FullSpaceInlierLattice(d).InferredNonOutliers(m),
                dense_inlier->InferredNonOutliers(m));
    }
  }
}

}  // namespace
}  // namespace hos::lattice
