// Fuzz suite for the lattice pruning invariants (paper Properties 1-2)
// under the batch-marking path the parallel frontier merge uses, run
// against both storage backends:
//
//   Property 1 (downward): a subset of a non-outlying subspace is
//   non-outlying — so the lattice must never hold a subset of a decided
//   non-outlier as outlier.
//   Property 2 (upward): a superset of an outlying subspace is outlying —
//   so the lattice must never hold a superset of a decided outlier as
//   non-outlier.
//
// Random monotone ground truths are fed in random evaluation orders and
// random batch partitions; verdicts for each batch are computed
// concurrently on a ThreadPool into pre-assigned slots and merged in batch
// order through MarkEvaluatedBatch — exactly the parallel search's
// pipeline. After every propagation, every decided subspace must agree
// with the ground truth, and every *inferred* state must be justified by
// an *evaluated* seed in the right direction. A final counter-closure
// check pins evaluated + inferred == 2^d - 1.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "src/common/combinatorics.h"
#include "src/common/rng.h"
#include "src/lattice/lattice_store.h"
#include "src/service/thread_pool.h"

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

/// Drives one full random-order, random-batch fill of a d-dim lattice,
/// computing each batch's verdicts concurrently on `pool` (slot-per-mask,
/// merged in batch order) when non-null.
void RunRandomBatchTrial(int d, LatticeBackend backend,
                         const std::vector<bool>& truth, Rng* rng,
                         service::ThreadPool* pool, bool check_each_step) {
  const uint64_t size = uint64_t{1} << d;
  std::unique_ptr<LatticeStore> state = MakeLatticeStore(d, backend).value();

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

    // "OD values" for the batch against threshold 0.5: computed
    // concurrently into pre-assigned slots, as the frontier merge does.
    std::vector<double> values(batch.size(), 0.0);
    if (pool != nullptr) {
      std::vector<std::future<void>> done;
      for (size_t i = 0; i < batch.size(); ++i) {
        done.push_back(pool->SubmitWithResult([&values, &truth, &batch, i]() {
          values[i] = truth[batch[i]] ? 1.0 : 0.0;
        }));
      }
      for (auto& f : done) f.wait();
    } else {
      for (size_t i = 0; i < batch.size(); ++i) {
        values[i] = truth[batch[i]] ? 1.0 : 0.0;
      }
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

class LatticeInvariantFuzzTest
    : public ::testing::TestWithParam<std::tuple<int, LatticeBackend>> {};

TEST_P(LatticeInvariantFuzzTest, RandomBatchMarkingPreservesProperties12) {
  const int d = 6;
  const auto [num_seeds, backend] = GetParam();
  Rng rng(7000 + num_seeds);
  for (int trial = 0; trial < 12; ++trial) {
    auto truth = RandomUpClosedTruth(d, num_seeds, &rng);
    RunRandomBatchTrial(d, backend, truth, &rng, /*pool=*/nullptr,
                        /*check_each_step=*/true);
  }
}

TEST_P(LatticeInvariantFuzzTest, ConcurrentBatchVerdictsPreserveProperties12) {
  const int d = 6;
  const auto [num_seeds, backend] = GetParam();
  Rng rng(9000 + num_seeds);
  service::ThreadPool pool(4);
  for (int trial = 0; trial < 8; ++trial) {
    auto truth = RandomUpClosedTruth(d, num_seeds, &rng);
    RunRandomBatchTrial(d, backend, truth, &rng, &pool,
                        /*check_each_step=*/true);
  }
}

// Many lattices filled concurrently, each via pool-computed batch verdicts
// on its own state: catches any hidden shared/static state in the lattice
// bookkeeping under TSan (the parallel search runs exactly this shape —
// per-query lattices, shared verdict pool). Drivers alternate backends so
// dense and sparse stores interleave on the same pool.
TEST(LatticeInvariantFuzzTest, IndependentLatticesUnderConcurrentMarking) {
  const int d = 6;
  service::ThreadPool verdict_pool(4);
  std::vector<std::thread> drivers;
  for (int t = 0; t < 4; ++t) {
    drivers.emplace_back([t, &verdict_pool]() {
      const LatticeBackend backend =
          t % 2 == 0 ? LatticeBackend::kDense : LatticeBackend::kSparse;
      Rng rng(11000 + static_cast<uint64_t>(t));
      for (int trial = 0; trial < 4; ++trial) {
        auto truth = RandomUpClosedTruth(d, 2 + t, &rng);
        RunRandomBatchTrial(d, backend, truth, &rng, &verdict_pool,
                            /*check_each_step=*/false);
      }
    });
  }
  for (auto& th : drivers) th.join();
}

INSTANTIATE_TEST_SUITE_P(
    SeedCounts, LatticeInvariantFuzzTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 4, 8),
                       ::testing::Values(LatticeBackend::kDense,
                                         LatticeBackend::kSparse)),
    [](const auto& info) {
      return "seeds" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == LatticeBackend::kDense ? "_dense"
                                                                : "_sparse");
    });

}  // namespace
}  // namespace hos::lattice
