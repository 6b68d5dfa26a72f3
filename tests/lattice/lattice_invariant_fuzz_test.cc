// Fuzz suite for the lattice pruning invariants (paper Properties 1-2)
// under the batch-marking path the frontier merge uses:
//
//   Property 1 (downward): a subset of a non-outlying subspace is
//   non-outlying — so the lattice must never hold a subset of a decided
//   non-outlier as outlier.
//   Property 2 (upward): a superset of an outlying subspace is outlying —
//   so the lattice must never hold a superset of a decided outlier as
//   non-outlier.
//
// Random monotone ground truths are fed in random evaluation orders and
// random batch partitions, each batch's verdicts merged in batch order
// through MarkEvaluatedBatch — the frontier runner's merge. After every
// propagation, every decided subspace must agree
// with the ground truth, and every *inferred* state must be justified by
// an *evaluated* seed in the right direction. A final counter-closure
// check pins evaluated + inferred == 2^d - 1.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/combinatorics.h"
#include "src/common/rng.h"
#include "src/lattice/lattice_store.h"

namespace hos::lattice {
namespace {

/// Random monotone (up-closed) outlier predicate over d dims: everything
/// containing one of `num_seeds` random seeds is an outlier.
std::vector<bool> RandomUpClosedTruth(int d, int num_seeds, Rng* rng) {
  const uint64_t size = uint64_t{1} << d;
  std::vector<uint64_t> seeds;
  for (int i = 0; i < num_seeds; ++i) {
    seeds.push_back(
        static_cast<uint64_t>(rng->UniformInt(1, static_cast<int64_t>(size - 1))));
  }
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

/// Checks that every decided subspace agrees with the monotone truth (which
/// subsumes Properties 1-2: a monotone assignment cannot contain an
/// outlier below a non-outlier), and that inferred states are justified by
/// evaluated seeds: an inferred outlier must contain an evaluated outlier,
/// an inferred non-outlier must be contained in an evaluated non-outlier.
void CheckInvariants(const LatticeStore& state, const std::vector<bool>& truth,
                     int d) {
  const uint64_t size = uint64_t{1} << d;
  std::vector<uint64_t> evaluated_outliers;
  std::vector<uint64_t> evaluated_non_outliers;
  for (uint64_t mask = 1; mask < size; ++mask) {
    const SubspaceState s = state.StateOf(Subspace(mask));
    if (s == SubspaceState::kEvaluatedOutlier) evaluated_outliers.push_back(mask);
    if (s == SubspaceState::kEvaluatedNonOutlier) {
      evaluated_non_outliers.push_back(mask);
    }
  }
  for (uint64_t mask = 1; mask < size; ++mask) {
    const Subspace s(mask);
    const SubspaceState st = state.StateOf(s);
    if (!IsDecided(st)) continue;
    ASSERT_EQ(state.IsOutlying(s), truth[mask]) << "mask " << mask;
    if (st == SubspaceState::kInferredOutlier) {
      bool justified = false;
      for (uint64_t seed : evaluated_outliers) {
        if ((mask & seed) == seed && mask != seed) justified = true;
      }
      ASSERT_TRUE(justified)
          << "inferred outlier " << mask << " has no evaluated outlier subset";
    }
    if (st == SubspaceState::kInferredNonOutlier) {
      bool justified = false;
      for (uint64_t seed : evaluated_non_outliers) {
        if ((mask & seed) == mask && mask != seed) justified = true;
      }
      ASSERT_TRUE(justified) << "inferred non-outlier " << mask
                             << " has no evaluated non-outlier superset";
    }
  }
  // The seed sets must be antichains (minimal outliers / maximal
  // non-outliers): a dominated seed would sneak duplicate pruning work.
  const auto& mins = state.minimal_outlier_seeds();
  for (size_t i = 0; i < mins.size(); ++i) {
    for (size_t j = 0; j < mins.size(); ++j) {
      if (i != j) {
        ASSERT_FALSE(mins[i].IsSubsetOf(mins[j]));
      }
    }
  }
  const auto& maxs = state.maximal_non_outlier_seeds();
  for (size_t i = 0; i < maxs.size(); ++i) {
    for (size_t j = 0; j < maxs.size(); ++j) {
      if (i != j) {
        ASSERT_FALSE(maxs[i].IsSubsetOf(maxs[j]));
      }
    }
  }
}

/// Drives one full random-order, random-batch fill of a d-dim lattice.
void RunRandomBatchTrial(int d, const std::vector<bool>& truth, Rng* rng,
                         bool check_each_step) {
  const uint64_t size = uint64_t{1} << d;
  std::unique_ptr<LatticeStore> state = MakeLatticeStore(d).value();

  std::vector<uint64_t> order;
  for (uint64_t mask = 1; mask < size; ++mask) order.push_back(mask);
  rng->Shuffle(&order);

  size_t cursor = 0;
  while (cursor < order.size()) {
    // Random batch of still-undecided masks; masks decided meanwhile must
    // already agree with the truth.
    const size_t batch_target = static_cast<size_t>(rng->UniformInt(1, 9));
    std::vector<uint64_t> batch;
    while (cursor < order.size() && batch.size() < batch_target) {
      const uint64_t mask = order[cursor++];
      if (IsDecided(state->StateOf(Subspace(mask)))) {
        ASSERT_EQ(state->IsOutlying(Subspace(mask)), truth[mask]);
        continue;
      }
      batch.push_back(mask);
    }
    if (batch.empty()) continue;

    // "OD values" for the batch against threshold 0.5.
    std::vector<double> values(batch.size(), 0.0);
    for (size_t i = 0; i < batch.size(); ++i) {
      values[i] = truth[batch[i]] ? 1.0 : 0.0;
    }
    state->MarkEvaluatedBatch(batch, values, /*threshold=*/0.5);
    state->Propagate();
    if (check_each_step) CheckInvariants(*state, truth, d);
  }
  state->Propagate();
  ASSERT_TRUE(state->AllDecided());
  CheckInvariants(*state, truth, d);

  // Counter closure: every subspace is exactly one of evaluated/inferred.
  uint64_t decided = 0;
  for (int m = 1; m <= d; ++m) {
    decided += state->EvaluatedOutliers(m) + state->EvaluatedNonOutliers(m) +
               state->InferredOutliers(m) + state->InferredNonOutliers(m);
    ASSERT_EQ(state->UndecidedCount(m), 0u);
  }
  ASSERT_EQ(decided, size - 1);
}

class LatticeInvariantFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(LatticeInvariantFuzzTest, RandomBatchMarkingPreservesProperties12) {
  const int d = 6;
  const int num_seeds = GetParam();
  Rng rng(7000 + num_seeds);
  for (int trial = 0; trial < 12; ++trial) {
    auto truth = RandomUpClosedTruth(d, num_seeds, &rng);
    RunRandomBatchTrial(d, truth, &rng, /*check_each_step=*/true);
  }
}

// Many lattices filled concurrently, each on its own thread and state:
// catches any hidden shared/static state in the lattice bookkeeping under
// TSan (the service runs exactly this shape — one walk per query worker,
// each on a lattice of its own).
TEST(LatticeInvariantFuzzTest, IndependentLatticesUnderConcurrentMarking) {
  const int d = 6;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t]() {
      Rng rng(11000 + static_cast<uint64_t>(t));
      for (int trial = 0; trial < 4; ++trial) {
        auto truth = RandomUpClosedTruth(d, 2 + t, &rng);
        RunRandomBatchTrial(d, truth, &rng, /*check_each_step=*/false);
      }
    });
  }
  for (auto& th : threads) th.join();
}

INSTANTIATE_TEST_SUITE_P(SeedCounts, LatticeInvariantFuzzTest,
                         ::testing::Values(0, 1, 2, 4, 8),
                         [](const auto& info) {
                           return "seeds" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace hos::lattice
