#include "src/common/combinatorics.h"

#include <gtest/gtest.h>

namespace hos {
namespace {

TEST(BinomialTest, SmallValues) {
  EXPECT_EQ(Binomial(0, 0), 1u);
  EXPECT_EQ(Binomial(4, 0), 1u);
  EXPECT_EQ(Binomial(4, 1), 4u);
  EXPECT_EQ(Binomial(4, 2), 6u);
  EXPECT_EQ(Binomial(4, 4), 1u);
  EXPECT_EQ(Binomial(10, 5), 252u);
}

TEST(BinomialTest, OutOfRangeIsZero) {
  EXPECT_EQ(Binomial(4, 5), 0u);
  EXPECT_EQ(Binomial(4, -1), 0u);
  EXPECT_EQ(Binomial(-1, 0), 0u);
}

TEST(BinomialTest, PascalIdentityHoldsForAllSmallN) {
  for (int n = 1; n <= 30; ++n) {
    for (int k = 1; k < n; ++k) {
      EXPECT_EQ(Binomial(n, k), Binomial(n - 1, k - 1) + Binomial(n - 1, k))
          << "n=" << n << " k=" << k;
    }
  }
}

// Binomial reads a Pascal triangle, so the Pascal identity above only
// checks the table against itself; here every entry of its range is
// recomputed independently, by the multiplicative formula in 128 bits.
TEST(BinomialTest, MatchesMultiplicativeFormulaOverItsWholeRange) {
  for (int n = 0; n <= 62; ++n) {
    unsigned __int128 want = 1;  // C(n, k), advanced one k at a time
    for (int k = 0; k <= n; ++k) {
      if (k > 0) want = want * static_cast<unsigned>(n - k + 1) / k;
      ASSERT_EQ(Binomial(n, k), static_cast<uint64_t>(want))
          << "n=" << n << " k=" << k;
    }
    EXPECT_EQ(Binomial(n, n + 1), 0u) << "n=" << n;
  }
}

TEST(BinomialTest, LargeExactValue) {
  EXPECT_EQ(Binomial(62, 31), 465428353255261088ull);
}

// The paper's §3.1 worked example: in a 4-dimensional space,
// DSF([1,2,3]) = C(3,1)*1 + C(3,2)*2 = 9.
TEST(SavingFactorTest, PaperDsfExample) {
  EXPECT_EQ(DownwardSavingFactor(3), 9u);
}

// ... and USF([1,4]) = C(2,1)*(2+1) + C(2,2)*(2+2) = 10.
TEST(SavingFactorTest, PaperUsfExample) {
  EXPECT_EQ(UpwardSavingFactor(2, 4), 10u);
}

TEST(SavingFactorTest, DsfBoundary) {
  // A 1-dimensional subspace has no non-empty proper subsets.
  EXPECT_EQ(DownwardSavingFactor(1), 0u);
  // DSF(2) = C(2,1)*1 = 2.
  EXPECT_EQ(DownwardSavingFactor(2), 2u);
}

TEST(SavingFactorTest, UsfBoundary) {
  // The full space has no supersets.
  EXPECT_EQ(UpwardSavingFactor(4, 4), 0u);
  // USF(3 in 4) = C(1,1)*(3+1) = 4.
  EXPECT_EQ(UpwardSavingFactor(3, 4), 4u);
}

// DSF(m) counts the workload sum_{i<m} C(m,i)*i of all proper non-empty
// subsets: verify against direct enumeration.
TEST(SavingFactorTest, DsfMatchesEnumeration) {
  for (int m = 1; m <= 12; ++m) {
    uint64_t expected = 0;
    for (const uint64_t mask : MasksOfLevel(m, m)) {
      (void)mask;  // only one mask at level m: the full one
    }
    for (int i = 1; i < m; ++i) {
      expected += MasksOfLevel(m, i).size() * static_cast<uint64_t>(i);
    }
    EXPECT_EQ(DownwardSavingFactor(m), expected) << "m=" << m;
  }
}

TEST(SavingFactorTest, UsfMatchesEnumeration) {
  const int d = 8;
  for (int m = 1; m <= d; ++m) {
    // Supersets of a fixed m-dim subspace with m+i dims: C(d-m, i) many,
    // each costing (m+i).
    uint64_t expected = 0;
    for (int i = 1; i <= d - m; ++i) {
      expected += Binomial(d - m, i) * static_cast<uint64_t>(m + i);
    }
    EXPECT_EQ(UpwardSavingFactor(m, d), expected);
  }
}

TEST(WorkloadTest, BelowAndAbovePartitionTotal) {
  const int d = 10;
  // Total workload over all levels = sum_m C(d,m)*m.
  uint64_t total = 0;
  for (int m = 1; m <= d; ++m) total += Binomial(d, m) * m;
  for (int m = 1; m <= d; ++m) {
    EXPECT_EQ(TotalWorkloadBelow(m, d) + TotalWorkloadAbove(m, d) +
                  Binomial(d, m) * m,
              total)
        << "m=" << m;
  }
}

TEST(WorkloadTest, Boundaries) {
  EXPECT_EQ(TotalWorkloadBelow(1, 6), 0u);
  EXPECT_EQ(TotalWorkloadAbove(6, 6), 0u);
  EXPECT_EQ(TotalWorkloadBelow(2, 6), 6u);   // C(6,1)*1
  EXPECT_EQ(TotalWorkloadAbove(5, 6), 6u);   // C(6,6)*6
}

TEST(MasksOfLevelTest, CountsMatchBinomial) {
  for (int d = 1; d <= 12; ++d) {
    for (int m = 0; m <= d; ++m) {
      EXPECT_EQ(MasksOfLevel(d, m).size(), Binomial(d, m));
    }
  }
}

TEST(MasksOfLevelTest, MasksHaveCorrectPopcountAndAscend) {
  auto masks = MasksOfLevel(8, 3);
  for (size_t i = 0; i < masks.size(); ++i) {
    EXPECT_EQ(PopCount(masks[i]), 3);
    if (i > 0) {
      EXPECT_LT(masks[i - 1], masks[i]);
    }
    EXPECT_LT(masks[i], uint64_t{1} << 8);
  }
}

TEST(MasksOfLevelTest, LevelZeroIsEmptyMask) {
  auto masks = MasksOfLevel(5, 0);
  ASSERT_EQ(masks.size(), 1u);
  EXPECT_EQ(masks[0], 0u);
}

TEST(MasksOfLevelTest, FullLevel) {
  auto masks = MasksOfLevel(5, 5);
  ASSERT_EQ(masks.size(), 1u);
  EXPECT_EQ(masks[0], 0b11111u);
}

}  // namespace
}  // namespace hos
