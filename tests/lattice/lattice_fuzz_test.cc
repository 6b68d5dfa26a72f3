// Randomised consistency check of the lattice bookkeeping: feed a random
// but monotone ground truth (an up-closed outlier set) to the lattice
// store in a random evaluation order and verify that the inferred states
// always agree with the ground truth, whatever the order of
// MarkEvaluated/Propagate.
//
// The tally oracle below holds the per-level counters and undecided
// enumerations to a full 2^d recount through StateOf after every
// Propagate, for d in 4..16: the store derives them from closed-form
// closure sizes and a seed-pruned descent, so the recount is the reference
// it must reproduce.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <vector>

#include "src/common/combinatorics.h"
#include "src/common/rng.h"
#include "src/lattice/lattice_store.h"

namespace hos::lattice {
namespace {

/// The monotone (up-closed) outlier predicate over d dims generated by
/// `seeds`: everything that contains a seed is an outlier.
std::vector<bool> UpClosedTruth(int d, const std::vector<uint64_t>& seeds) {
  const uint64_t size = uint64_t{1} << d;
  std::vector<bool> outlier(size, false);
  for (uint64_t mask = 1; mask < size; ++mask) {
    for (uint64_t seed : seeds) {
      if ((mask & seed) == seed) {
        outlier[mask] = true;
        break;
      }
    }
  }
  return outlier;
}

/// Builds a random monotone outlier predicate over d dims from
/// `num_seeds` uniformly random seed subspaces. `num_seeds` == 0 yields the
/// all-non-outlier lattice.
std::vector<bool> RandomUpClosedTruth(int d, int num_seeds, Rng* rng) {
  const uint64_t size = uint64_t{1} << d;
  std::vector<uint64_t> seeds;
  for (int i = 0; i < num_seeds; ++i) {
    seeds.push_back(rng->UniformInt(1, static_cast<int64_t>(size - 1)));
  }
  return UpClosedTruth(d, seeds);
}

class LatticeFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(LatticeFuzzTest, RandomOrderEvaluationNeverContradictsTruth) {
  const int d = 6;
  const int num_seeds = GetParam();
  Rng rng(1000 + num_seeds);

  for (int trial = 0; trial < 20; ++trial) {
    auto truth = RandomUpClosedTruth(d, num_seeds, &rng);
    auto state = MakeLatticeStore(d).value();

    // Random evaluation order over all masks; skip already-decided ones and
    // propagate at random batch boundaries.
    std::vector<uint64_t> order;
    for (uint64_t mask = 1; mask < (uint64_t{1} << d); ++mask) {
      order.push_back(mask);
    }
    rng.Shuffle(&order);
    for (uint64_t mask : order) {
      Subspace s(mask);
      if (IsDecided(state->StateOf(s))) {
        // Inferred states must match the truth.
        EXPECT_EQ(state->IsOutlying(s), truth[mask])
            << "mask " << mask << " seeds " << num_seeds;
        continue;
      }
      state->MarkEvaluated(s, truth[mask]);
      if (rng.Bernoulli(0.3)) state->Propagate();
    }
    state->Propagate();
    EXPECT_TRUE(state->AllDecided());

    // Final states all agree with the ground truth; per-level counts too.
    for (int m = 1; m <= d; ++m) {
      uint64_t outliers_at_level = 0;
      for (uint64_t mask : MasksOfLevel(d, m)) {
        EXPECT_EQ(state->IsOutlying(Subspace(mask)), truth[mask]);
        outliers_at_level += truth[mask];
      }
      EXPECT_EQ(state->OutliersAtLevel(m), outliers_at_level) << "m=" << m;
    }

    // The minimal seeds are exactly the minimal evaluated outliers, in
    // evaluation order, whatever order the levels were marked in.
    std::vector<Subspace> minimal;
    const auto& evaluated = state->evaluated_outlier_list();
    for (const Subspace& s : evaluated) {
      const bool dominated =
          std::any_of(evaluated.begin(), evaluated.end(),
                      [&](const Subspace& t) { return t.IsProperSubsetOf(s); });
      if (!dominated) minimal.push_back(s);
    }
    EXPECT_EQ(state->minimal_outlier_seeds(), minimal);
    // Dually, the maximal seeds are the maximal evaluated non-outliers.
    std::vector<uint64_t> non_outliers, maximal, seeds;
    for (uint64_t mask = 1; mask < (uint64_t{1} << d); ++mask) {
      if (state->StateOf(Subspace(mask)) ==
          SubspaceState::kEvaluatedNonOutlier) {
        non_outliers.push_back(mask);
      }
    }
    for (uint64_t s : non_outliers) {
      if (std::none_of(non_outliers.begin(), non_outliers.end(),
                       [s](uint64_t t) { return t != s && (s & t) == s; })) {
        maximal.push_back(s);
      }
    }
    for (const Subspace& seed : state->maximal_non_outlier_seeds()) {
      seeds.push_back(seed.mask());
    }
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(seeds, maximal);

    // The minimal seeds generate exactly the truth's up-closure.
    for (uint64_t mask = 1; mask < (uint64_t{1} << d); ++mask) {
      bool covered = false;
      for (const Subspace& seed : state->minimal_outlier_seeds()) {
        if ((mask & seed.mask()) == seed.mask()) {
          covered = true;
          break;
        }
      }
      EXPECT_EQ(covered, truth[mask]) << "mask " << mask;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedCounts, LatticeFuzzTest,
                         ::testing::Values(0, 1, 2, 4, 8),
                         [](const auto& info) {
                           return "seeds" + std::to_string(info.param);
                         });

/// Per-level state counts of every one of the 2^d - 1 masks, classified
/// one by one through StateOf, and the undecided masks in ascending order.
struct LevelRecount {
  std::vector<uint64_t> evaluated_outliers, evaluated_non_outliers,
      inferred_outliers, inferred_non_outliers, undecided;
  std::vector<std::vector<uint64_t>> undecided_masks;
};

LevelRecount Recount(const LatticeStore& state) {
  const int d = state.num_dims();
  LevelRecount r;
  for (auto* level : {&r.evaluated_outliers, &r.evaluated_non_outliers,
                      &r.inferred_outliers, &r.inferred_non_outliers,
                      &r.undecided}) {
    level->assign(d + 1, 0);
  }
  r.undecided_masks.resize(d + 1);
  for (uint64_t mask = 1; mask < (uint64_t{1} << d); ++mask) {
    const int m = std::popcount(mask);
    switch (state.StateOf(Subspace(mask))) {
      case SubspaceState::kEvaluatedOutlier:
        ++r.evaluated_outliers[m];
        break;
      case SubspaceState::kEvaluatedNonOutlier:
        ++r.evaluated_non_outliers[m];
        break;
      case SubspaceState::kInferredOutlier:
        ++r.inferred_outliers[m];
        break;
      case SubspaceState::kInferredNonOutlier:
        ++r.inferred_non_outliers[m];
        break;
      case SubspaceState::kUndecided:
        ++r.undecided[m];
        r.undecided_masks[m].push_back(mask);
        break;
    }
  }
  return r;
}

/// A seed of uniformly random size 1..d, so truths range from singleton-
/// driven (most of the lattice outlying) to a handful of large seeds.
uint64_t RandomSeed(int d, Rng* rng) {
  std::vector<int> dims(d);
  for (int i = 0; i < d; ++i) dims[i] = i;
  rng->Shuffle(&dims);
  const int size = static_cast<int>(rng->UniformInt(1, d));
  uint64_t seed = 0;
  for (int i = 0; i < size; ++i) seed |= uint64_t{1} << dims[i];
  return seed;
}

TEST(TallyOracleTest, TalliesMatchFullRecountAfterEveryPropagate) {
  Rng rng(7100);
  for (int d = 4; d <= 16; ++d) {
    const int trials = d <= 12 ? 4 : 1;
    for (int trial = 0; trial < trials; ++trial) {
      std::vector<uint64_t> seeds;
      const int num_seeds = static_cast<int>(rng.UniformInt(0, 6));
      for (int i = 0; i < num_seeds; ++i) seeds.push_back(RandomSeed(d, &rng));
      const std::vector<bool> truth = UpClosedTruth(d, seeds);
      auto state = MakeLatticeStore(d).value();

      // Level waves in random level order (not TSF's): each wave is the
      // level's undecided masks in random order, merged in one to three
      // chunks with a Propagate after each chunk.
      while (!state->AllDecided()) {
        std::vector<int> open;
        for (int m = 1; m <= d; ++m) {
          if (state->UndecidedCount(m) > 0) open.push_back(m);
        }
        const int m = open[rng.UniformInt(0, static_cast<int64_t>(open.size()) - 1)];
        std::vector<uint64_t> wave = state->UndecidedMasks(m);
        rng.Shuffle(&wave);
        const size_t chunks = static_cast<size_t>(rng.UniformInt(1, 3));
        const size_t chunk_size = (wave.size() + chunks - 1) / chunks;
        for (size_t begin = 0; begin < wave.size(); begin += chunk_size) {
          const size_t end = std::min(wave.size(), begin + chunk_size);
          for (size_t i = begin; i < end; ++i) {
            state->MarkEvaluated(Subspace(wave[i]), truth[wave[i]]);
          }
          state->Propagate();

          const LevelRecount want = Recount(*state);
          for (int level = 1; level <= d; ++level) {
            SCOPED_TRACE("d=" + std::to_string(d) + " trial=" +
                         std::to_string(trial) + " m=" +
                         std::to_string(level));
            ASSERT_EQ(state->EvaluatedOutliers(level),
                      want.evaluated_outliers[level]);
            ASSERT_EQ(state->EvaluatedNonOutliers(level),
                      want.evaluated_non_outliers[level]);
            ASSERT_EQ(state->InferredOutliers(level),
                      want.inferred_outliers[level]);
            ASSERT_EQ(state->InferredNonOutliers(level),
                      want.inferred_non_outliers[level]);
            ASSERT_EQ(state->UndecidedCount(level), want.undecided[level]);
            ASSERT_EQ(state->UndecidedMasks(level),
                      want.undecided_masks[level]);
          }
        }
      }
      for (uint64_t mask = 1; mask < (uint64_t{1} << d); ++mask) {
        ASSERT_EQ(state->IsOutlying(Subspace(mask)), truth[mask])
            << "d=" << d << " mask " << mask;
      }
    }
  }
}

}  // namespace
}  // namespace hos::lattice
