// The lattice store's closed-form closure counting, checked exhaustively
// against brute-force enumeration: for random seed families over small d,
// AvoidingSubsetCounts / Up- / DownClosureLevelCounts must equal a direct
// sweep over all 2^d masks — including degenerate families (empty, single
// seed, dominated seeds, the full space, all singletons).

#include "src/lattice/closure_counts.h"

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "src/common/combinatorics.h"
#include "src/common/rng.h"

namespace hos::lattice {
namespace {

struct BruteCounts {
  std::vector<uint64_t> avoid, up, down;
};

BruteCounts Brute(const std::vector<uint64_t>& seeds, int d) {
  BruteCounts out;
  out.avoid.assign(d + 1, 0);
  out.up.assign(d + 1, 0);
  out.down.assign(d + 1, 0);
  for (uint64_t mask = 0; mask < (uint64_t{1} << d); ++mask) {
    const int m = std::popcount(mask);
    bool contains_seed = false, inside_seed = false;
    for (uint64_t s : seeds) {
      if ((mask & s) == s) contains_seed = true;
      if ((mask & s) == mask) inside_seed = true;
    }
    if (!contains_seed) ++out.avoid[m];
    if (!seeds.empty() && contains_seed) ++out.up[m];
    if (!seeds.empty() && inside_seed) ++out.down[m];
  }
  return out;
}

void CheckAgainstBrute(const std::vector<uint64_t>& seeds, int d) {
  const BruteCounts brute = Brute(seeds, d);
  EXPECT_EQ(AvoidingSubsetCounts(seeds, d), brute.avoid) << "d=" << d;
  EXPECT_EQ(UpClosureLevelCounts(seeds, d), brute.up) << "d=" << d;
  EXPECT_EQ(DownClosureLevelCounts(seeds, d), brute.down) << "d=" << d;
}

TEST(ClosureCountsTest, EmptyFamily) {
  const int d = 6;
  EXPECT_EQ(UpClosureLevelCounts({}, d), std::vector<uint64_t>(d + 1, 0));
  EXPECT_EQ(DownClosureLevelCounts({}, d), std::vector<uint64_t>(d + 1, 0));
  // No seeds to avoid: every subset qualifies.
  const auto avoid = AvoidingSubsetCounts({}, d);
  for (int m = 0; m <= d; ++m) EXPECT_EQ(avoid[m], Binomial(d, m));
}

TEST(ClosureCountsTest, DegenerateFamilies) {
  CheckAgainstBrute({0b1}, 5);                  // one singleton
  CheckAgainstBrute({0b11111}, 5);              // the full space
  CheckAgainstBrute({0b1, 0b10, 0b100}, 5);     // several singletons
  CheckAgainstBrute({0b11, 0b111}, 5);          // dominated seed
  CheckAgainstBrute({0b11, 0b11}, 5);           // duplicate seed
  CheckAgainstBrute({0b101, 0b1010, 0b10100}, 6);
}

TEST(ClosureCountsTest, AllSingletons) {
  // With every dimension a seed, the up-closure is the whole lattice and
  // only the empty mask avoids everything.
  const int d = 10;
  std::vector<uint64_t> seeds;
  for (int i = 0; i < d; ++i) seeds.push_back(uint64_t{1} << i);
  const auto avoid = AvoidingSubsetCounts(seeds, d);
  EXPECT_EQ(avoid[0], 1u);
  for (int m = 1; m <= d; ++m) EXPECT_EQ(avoid[m], 0u);
  const auto up = UpClosureLevelCounts(seeds, d);
  for (int m = 1; m <= d; ++m) EXPECT_EQ(up[m], Binomial(d, m));
}

TEST(ClosureCountsTest, RandomFamiliesMatchBruteForce) {
  Rng rng(2026);
  for (int trial = 0; trial < 200; ++trial) {
    const int d = static_cast<int>(rng.UniformInt(1, 12));
    const int n = static_cast<int>(rng.UniformInt(0, 8));
    std::vector<uint64_t> seeds;
    for (int i = 0; i < n; ++i) {
      seeds.push_back(static_cast<uint64_t>(
          rng.UniformInt(1, (int64_t{1} << d) - 1)));
    }
    CheckAgainstBrute(seeds, d);
  }
}

TEST(ClosureCountsTest, HighDimensionalClosedForm) {
  // Counts no enumeration could reach: d = 40, one pair seed. Supersets of
  // a fixed pair at level m are C(38, m-2).
  const int d = 40;
  const auto up = UpClosureLevelCounts({0b11}, d);
  for (int m = 2; m <= d; ++m) {
    EXPECT_EQ(up[m], Binomial(d - 2, m - 2)) << m;
  }
  // Down-closure of a 38-dim seed: C(38, m) subsets at level m.
  const uint64_t wide = ((uint64_t{1} << d) - 1) & ~uint64_t{0b11};
  const auto down = DownClosureLevelCounts({wide}, d);
  for (int m = 0; m <= d; ++m) {
    EXPECT_EQ(down[m], Binomial(d - 2, m)) << m;
  }
}

}  // namespace
}  // namespace hos::lattice
