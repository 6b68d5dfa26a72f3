// Combinatorial helpers used by the saving-factor formulas (paper §3.1)
// and by lattice-level enumeration.

#ifndef HOS_COMMON_COMBINATORICS_H_
#define HOS_COMMON_COMBINATORICS_H_

#include <cstdint>
#include <vector>

namespace hos {

/// Binomial coefficient C(n, k), one lookup in a compile-time Pascal
/// triangle of 64-bit entries. Exact for every (n, k) with n <= 62;
/// returns 0 for k < 0 or k > n. n > 62 is outside the table: a caller
/// error, asserted in debug builds, that returns 0.
uint64_t Binomial(int n, int k);

/// Sum_{i=1..m-1} C(i, m) * i — the Downward Saving Factor of an
/// m-dimensional subspace (paper Definition 1). Depends only on m.
uint64_t DownwardSavingFactor(int m);

/// Sum_{i=1..d-m} C(i, d-m) * (m + i) — the Upward Saving Factor of an
/// m-dimensional subspace in a d-dimensional space (paper Definition 2).
uint64_t UpwardSavingFactor(int m, int d);

/// Total per-level "workload" below level m: Sum_{i<m} C(d, i) * i.
/// Used as C_down(m) in the f_down fraction of Definition 3.
uint64_t TotalWorkloadBelow(int m, int d);

/// Total per-level workload above level m: Sum_{i>m} C(d, i) * i.
/// Used as C_up(m) in the f_up fraction of Definition 3.
uint64_t TotalWorkloadAbove(int m, int d);

/// All C(d, m) bitmasks over d dimensions with exactly m bits set,
/// in ascending numeric order (Gosper's hack).
std::vector<uint64_t> MasksOfLevel(int d, int m);

/// Number of set bits.
int PopCount(uint64_t mask);

}  // namespace hos

#endif  // HOS_COMMON_COMBINATORICS_H_
