#include "src/lattice/saving_factors.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/common/combinatorics.h"
#include "src/common/rng.h"
#include "src/lattice/lattice_store.h"

namespace hos::lattice {
namespace {

TEST(PruningPriorsTest, FlatMatchesPaperSection32) {
  auto priors = PruningPriors::Flat(5);
  EXPECT_EQ(priors.num_dims(), 5);
  // Boundary level 1: p_up = 1, p_down = 0.
  EXPECT_DOUBLE_EQ(priors.up[1], 1.0);
  EXPECT_DOUBLE_EQ(priors.down[1], 0.0);
  // Boundary level d: p_up = 0, p_down = 1.
  EXPECT_DOUBLE_EQ(priors.up[5], 0.0);
  EXPECT_DOUBLE_EQ(priors.down[5], 1.0);
  // Interior levels: 0.5 each.
  for (int m = 2; m <= 4; ++m) {
    EXPECT_DOUBLE_EQ(priors.up[m], 0.5);
    EXPECT_DOUBLE_EQ(priors.down[m], 0.5);
  }
}

TEST(LevelConstantsTest, EqualBinomialSumDefinitionsUpToTheCap) {
  // The once-per-d table uses closed forms and prefix sums; every entry
  // must equal the Binomial-sum definition exactly, so level choices are
  // unchanged at every reachable d.
  for (int d = 1; d <= kMaxLatticeDims; ++d) {
    const LevelConstants& c = LevelConstantsFor(d);
    for (int m = 1; m <= d; ++m) {
      SCOPED_TRACE("d=" + std::to_string(d) + " m=" + std::to_string(m));
      ASSERT_EQ(c.dsf[m], DownwardSavingFactor(m));
      ASSERT_EQ(c.usf[m], UpwardSavingFactor(m, d));
      ASSERT_EQ(c.workload_below[m], TotalWorkloadBelow(m, d));
      ASSERT_EQ(c.workload_above[m], TotalWorkloadAbove(m, d));
    }
  }
}

/// Definition 3 computed straight from the Binomial-sum definitions: the
/// reference the tabulated TotalSavingFactor must match bit for bit.
double ReferenceTsf(int m, const PruningPriors& priors,
                    const LatticeStore& state) {
  const int d = state.num_dims();
  if (state.UndecidedCount(m) == 0) return 0.0;
  double tsf = 0.0;
  if (m > 1) {
    const uint64_t c_down = TotalWorkloadBelow(m, d);
    const double f_down =
        c_down == 0 ? 0.0
                    : static_cast<double>(state.RemainingWorkloadBelow(m)) /
                          static_cast<double>(c_down);
    tsf += priors.down[m] * f_down *
           static_cast<double>(DownwardSavingFactor(m));
  }
  if (m < d) {
    const uint64_t c_up = TotalWorkloadAbove(m, d);
    const double f_up =
        c_up == 0 ? 0.0
                  : static_cast<double>(state.RemainingWorkloadAbove(m)) /
                        static_cast<double>(c_up);
    tsf += priors.up[m] * f_up *
           static_cast<double>(UpwardSavingFactor(m, d));
  }
  return tsf;
}

int ReferenceBestLevel(const PruningPriors& priors, const LatticeStore& state,
                       int exclude) {
  int best = 0;
  double best_tsf = -1.0;
  for (int m = 1; m <= state.num_dims(); ++m) {
    if (m == exclude || state.UndecidedCount(m) == 0) continue;
    const double tsf = ReferenceTsf(m, priors, state);
    if (best == 0 || tsf > best_tsf) {
      best = m;
      best_tsf = tsf;
    }
  }
  return best;
}

// The TSF inputs come entirely from the lattice store's per-level tallies,
// so every test below runs against both storage backends.
class SavingFactorsTest : public ::testing::TestWithParam<LatticeBackend> {
 protected:
  static std::unique_ptr<LatticeStore> Make(int d) {
    return MakeLatticeStore(d, GetParam()).value();
  }
};

TEST_P(SavingFactorsTest, FreshLatticeUsesFullFractions) {
  // On a fresh lattice f_down = f_up = 1, so Definition 3 reduces to
  // p_down*DSF + p_up*USF with the boundary cases at m = 1 and m = d.
  const int d = 4;
  auto state = Make(d);
  auto priors = PruningPriors::Flat(d);

  // m = 1: only the upward term, p_up(1) = 1.
  EXPECT_DOUBLE_EQ(TotalSavingFactor(1, priors, *state),
                   1.0 * static_cast<double>(UpwardSavingFactor(1, d)));
  // m = d: only the downward term, p_down(d) = 1.
  EXPECT_DOUBLE_EQ(TotalSavingFactor(d, priors, *state),
                   1.0 * static_cast<double>(DownwardSavingFactor(d)));
  // Interior m: both terms at probability 0.5.
  for (int m = 2; m < d; ++m) {
    double expected = 0.5 * static_cast<double>(DownwardSavingFactor(m)) +
                      0.5 * static_cast<double>(UpwardSavingFactor(m, d));
    EXPECT_DOUBLE_EQ(TotalSavingFactor(m, priors, *state), expected);
  }
}

TEST_P(SavingFactorsTest, DecidedLevelScoresZero) {
  const int d = 3;
  auto state = Make(d);
  for (uint64_t mask : MasksOfLevel(d, 2)) {
    state->MarkEvaluated(Subspace(mask), false);
  }
  auto priors = PruningPriors::Flat(d);
  EXPECT_DOUBLE_EQ(TotalSavingFactor(2, priors, *state), 0.0);
}

TEST_P(SavingFactorsTest, FractionsShrinkAsLatticeResolves) {
  const int d = 4;
  auto state = Make(d);
  auto priors = PruningPriors::Flat(d);
  double before = TotalSavingFactor(2, priors, *state);
  // Decide all of level 1 as non-outliers: C_down_left(2) drops to 0.
  for (uint64_t mask : MasksOfLevel(d, 1)) {
    state->MarkEvaluated(Subspace(mask), false);
  }
  state->Propagate();
  double after = TotalSavingFactor(2, priors, *state);
  EXPECT_LT(after, before);
  // Now the downward term of level 2 is zero; only the upward term remains.
  EXPECT_DOUBLE_EQ(after,
                   0.5 * static_cast<double>(UpwardSavingFactor(2, d)));
}

TEST_P(SavingFactorsTest, FreshLatticePrefersExpectedLevel) {
  // With flat priors the best level maximises the Definition-3 mix; verify
  // BestLevel agrees with a direct argmax.
  for (int d = 2; d <= 10; ++d) {
    auto state = Make(d);
    auto priors = PruningPriors::Flat(d);
    int best = BestLevel(priors, *state);
    ASSERT_GE(best, 1);
    double best_tsf = TotalSavingFactor(best, priors, *state);
    for (int m = 1; m <= d; ++m) {
      EXPECT_LE(TotalSavingFactor(m, priors, *state), best_tsf);
    }
  }
}

TEST_P(SavingFactorsTest, SkipsDecidedLevels) {
  const int d = 3;
  auto state = Make(d);
  auto priors = PruningPriors::Flat(d);
  int first = BestLevel(priors, *state);
  for (uint64_t mask : MasksOfLevel(d, first)) {
    state->MarkEvaluated(Subspace(mask), false);
  }
  state->Propagate();
  int second = BestLevel(priors, *state);
  EXPECT_NE(second, first);
}

TEST_P(SavingFactorsTest, ReturnsZeroWhenAllDecided) {
  const int d = 2;
  auto state = Make(d);
  auto priors = PruningPriors::Flat(d);
  state->MarkEvaluated(Subspace::FromOneBased({1}), false);
  state->MarkEvaluated(Subspace::FromOneBased({2}), false);
  state->MarkEvaluated(Subspace::FromOneBased({1, 2}), false);
  EXPECT_EQ(BestLevel(priors, *state), 0);
}

TEST_P(SavingFactorsTest, BookkeepingStaysConsistentAfterBatchMerges) {
  // The TSF inputs (per-level undecided counts, the f_down/f_up remaining
  // workloads) are maintained incrementally by MarkEvaluated[Batch] and
  // Propagate. Replay random batch merges and verify every increment
  // against a brute-force recount from the raw per-mask states.
  const int d = 7;
  const uint64_t size = uint64_t{1} << d;
  auto priors = PruningPriors::Flat(d);
  for (uint64_t trial_seed : {31u, 32u, 33u}) {
    Rng rng(trial_seed);
    auto state = Make(d);
    std::vector<uint64_t> order;
    for (uint64_t mask = 1; mask < size; ++mask) order.push_back(mask);
    rng.Shuffle(&order);

    size_t cursor = 0;
    while (cursor < order.size()) {
      std::vector<uint64_t> batch;
      std::vector<double> values;
      const size_t batch_target = static_cast<size_t>(rng.UniformInt(1, 12));
      while (cursor < order.size() && batch.size() < batch_target) {
        const uint64_t mask = order[cursor++];
        if (IsDecided(state->StateOf(Subspace(mask)))) continue;
        batch.push_back(mask);
        // Monotone verdict: outlier iff the mask contains dimension 0.
        values.push_back((mask & 1) != 0 ? 1.0 : 0.0);
      }
      if (batch.empty()) continue;
      state->MarkEvaluatedBatch(batch, values, /*threshold=*/0.5);
      state->Propagate();

      // Brute-force recount of the TSF inputs from the per-mask states.
      std::vector<uint64_t> undecided(d + 1, 0);
      for (uint64_t mask = 1; mask < size; ++mask) {
        if (!IsDecided(state->StateOf(Subspace(mask)))) {
          ++undecided[Subspace(mask).Dimensionality()];
        }
      }
      for (int m = 1; m <= d; ++m) {
        ASSERT_EQ(state->UndecidedCount(m), undecided[m]) << "m=" << m;
        uint64_t below = 0, above = 0;
        for (int i = 1; i < m; ++i) below += undecided[i] * i;
        for (int i = m + 1; i <= d; ++i) above += undecided[i] * i;
        ASSERT_EQ(state->RemainingWorkloadBelow(m), below) << "m=" << m;
        ASSERT_EQ(state->RemainingWorkloadAbove(m), above) << "m=" << m;
        if (undecided[m] == 0) {
          ASSERT_EQ(TotalSavingFactor(m, priors, *state), 0.0);
        }
      }
      const int best = BestLevel(priors, *state);
      if (best != 0) {
        ASSERT_GT(state->UndecidedCount(best), 0u);
        for (int m = 1; m <= d; ++m) {
          ASSERT_LE(TotalSavingFactor(m, priors, *state),
                    TotalSavingFactor(best, priors, *state));
        }
      } else {
        ASSERT_TRUE(state->AllDecided());
      }
    }
    ASSERT_TRUE(state->AllDecided());
  }
}

TEST_P(SavingFactorsTest, BestLevelMatchesDefinitionReferenceOnRandomWalks) {
  // Random priors (learned ones are arbitrary in [0, 1]) and a random
  // monotone truth; at every step of a TSF-driven walk, BestLevel (with
  // and without an excluded level) and every level's TSF must equal the
  // definition-based reference bit for bit.
  Rng rng(4242);
  for (int d : {2, 5, 8, 11, 13}) {
    for (int trial = 0; trial < 4; ++trial) {
      PruningPriors priors = PruningPriors::Flat(d);
      if (trial > 0) {
        for (int m = 1; m <= d; ++m) {
          priors.up[m] = rng.Uniform();
          priors.down[m] = rng.Uniform();
        }
      }
      std::vector<uint64_t> seeds;
      for (int i = static_cast<int>(rng.UniformInt(0, 4)); i > 0; --i) {
        seeds.push_back(static_cast<uint64_t>(
            rng.UniformInt(1, static_cast<int64_t>((uint64_t{1} << d) - 1))));
      }
      auto state = Make(d);
      while (true) {
        const int exclude = static_cast<int>(rng.UniformInt(0, d));
        ASSERT_EQ(BestLevel(priors, *state, exclude),
                  ReferenceBestLevel(priors, *state, exclude))
            << "d=" << d << " exclude=" << exclude;
        for (int m = 1; m <= d; ++m) {
          ASSERT_EQ(TotalSavingFactor(m, priors, *state),
                    ReferenceTsf(m, priors, *state))
              << "d=" << d << " m=" << m;
        }
        const int m = BestLevel(priors, *state);
        ASSERT_EQ(m, ReferenceBestLevel(priors, *state, 0));
        if (m == 0) break;
        for (uint64_t mask : state->UndecidedMasks(m)) {
          bool outlier = false;
          for (uint64_t seed : seeds) outlier |= (mask & seed) == seed;
          state->MarkEvaluated(Subspace(mask), outlier);
        }
        state->Propagate();
      }
      ASSERT_TRUE(state->AllDecided());
    }
  }
}

TEST_P(SavingFactorsTest, LearnedPriorsSteerTheChoice) {
  // Push all upward probability to level 2: it should win on a fresh
  // 5-d lattice against interior levels with zero priors.
  const int d = 5;
  auto state = Make(d);
  PruningPriors priors;
  priors.up.assign(d + 1, 0.0);
  priors.down.assign(d + 1, 0.0);
  priors.up[2] = 1.0;
  EXPECT_EQ(BestLevel(priors, *state), 2);
}

INSTANTIATE_TEST_SUITE_P(Backends, SavingFactorsTest,
                         ::testing::Values(LatticeBackend::kDense,
                                           LatticeBackend::kSparse),
                         [](const auto& info) {
                           return info.param == LatticeBackend::kDense
                                      ? "dense"
                                      : "sparse";
                         });

}  // namespace
}  // namespace hos::lattice
