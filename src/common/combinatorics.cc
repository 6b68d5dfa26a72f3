#include "src/common/combinatorics.h"

#include <array>
#include <bit>
#include <cassert>

namespace hos {
namespace {

/// The largest n Binomial answers (its documented exact range).
constexpr int kMaxBinomialN = 62;

using PascalTriangle =
    std::array<std::array<uint64_t, kMaxBinomialN + 1>, kMaxBinomialN + 1>;

/// C(n, k) for 0 <= k <= n <= kMaxBinomialN by Pascal's rule; entries with
/// k > n stay 0. Every entry fits 64 bits: the largest, C(62, 31), is
/// below 2^59.
constexpr PascalTriangle MakePascalTriangle() {
  PascalTriangle table{};
  table[0][0] = 1;
  for (int n = 1; n <= kMaxBinomialN; ++n) {
    table[n][0] = 1;
    for (int k = 1; k <= n; ++k) {
      table[n][k] = table[n - 1][k - 1] + table[n - 1][k];
    }
  }
  return table;
}

constexpr PascalTriangle kPascal = MakePascalTriangle();

}  // namespace

uint64_t Binomial(int n, int k) {
  assert(n <= kMaxBinomialN);
  if (k < 0 || k > n || n < 0 || n > kMaxBinomialN) return 0;
  return kPascal[n][k];
}

uint64_t DownwardSavingFactor(int m) {
  uint64_t sum = 0;
  for (int i = 1; i <= m - 1; ++i) {
    sum += Binomial(m, i) * static_cast<uint64_t>(i);
  }
  return sum;
}

uint64_t UpwardSavingFactor(int m, int d) {
  assert(m <= d);
  uint64_t sum = 0;
  for (int i = 1; i <= d - m; ++i) {
    sum += Binomial(d - m, i) * static_cast<uint64_t>(m + i);
  }
  return sum;
}

uint64_t TotalWorkloadBelow(int m, int d) {
  uint64_t sum = 0;
  for (int i = 1; i < m; ++i) {
    sum += Binomial(d, i) * static_cast<uint64_t>(i);
  }
  return sum;
}

uint64_t TotalWorkloadAbove(int m, int d) {
  uint64_t sum = 0;
  for (int i = m + 1; i <= d; ++i) {
    sum += Binomial(d, i) * static_cast<uint64_t>(i);
  }
  return sum;
}

std::vector<uint64_t> MasksOfLevel(int d, int m) {
  assert(d >= 1 && d <= 62);
  assert(m >= 0 && m <= d);
  if (m == 0) return {0};
  std::vector<uint64_t> out;
  out.reserve(Binomial(d, m));
  // Counting down C(d, m) iterations (rather than comparing against
  // 1 << d) keeps the final Gosper step from overflowing at d = 62.
  uint64_t mask = (uint64_t{1} << m) - 1;
  for (uint64_t remaining = Binomial(d, m); remaining > 0; --remaining) {
    out.push_back(mask);
    if (remaining == 1) break;
    // Gosper's hack: next integer with the same popcount.
    const uint64_t c = mask & (~mask + 1);
    const uint64_t r = mask + c;
    mask = (((r ^ mask) >> 2) / c) | r;
  }
  return out;
}

int PopCount(uint64_t mask) { return std::popcount(mask); }

}  // namespace hos
