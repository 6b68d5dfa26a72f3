#include "src/lattice/saving_factors.h"

#include <cassert>

namespace hos::lattice {
namespace {

/// The Binomial-sum definitions of combinatorics.h in closed form:
///   DSF(m)    = sum_{i<m} i C(m, i)           = m (2^(m-1) - 1)
///   USF(m, d) = sum_{i=1..k} (m + i) C(k, i)  = m (2^k - 1) + k 2^(k-1),
///               k = d - m (0 at the full space, whose k = 0 has no shift)
/// and the workload sums as prefix / suffix sums of i C(d, i). No partial
/// sum exceeds d 2^(d-1) < 2^63 at d <= kMaxLatticeDims, so nothing wraps.
LevelConstants BuildLevelConstants(int d) {
  LevelConstants c;
  for (int m = 1; m <= d; ++m) {
    const uint64_t mm = static_cast<uint64_t>(m);
    c.dsf[m] = mm * ((uint64_t{1} << (m - 1)) - 1);
    const int k = d - m;
    c.usf[m] = k == 0 ? 0
                      : mm * ((uint64_t{1} << k) - 1) +
                            static_cast<uint64_t>(k) * (uint64_t{1} << (k - 1));
  }
  for (int m = 2; m <= d; ++m) {
    c.workload_below[m] = c.workload_below[m - 1] +
                          Binomial(d, m - 1) * static_cast<uint64_t>(m - 1);
  }
  for (int m = d - 1; m >= 1; --m) {
    c.workload_above[m] = c.workload_above[m + 1] +
                          Binomial(d, m + 1) * static_cast<uint64_t>(m + 1);
  }
  return c;
}

}  // namespace

PruningPriors PruningPriors::Flat(int d) {
  PruningPriors priors;
  priors.up.assign(d + 1, 0.5);
  priors.down.assign(d + 1, 0.5);
  priors.up[0] = priors.down[0] = 0.0;
  priors.up[1] = 1.0;
  priors.down[1] = 0.0;
  priors.up[d] = 0.0;
  priors.down[d] = 1.0;
  return priors;
}

const LevelConstants& LevelConstantsFor(int d) {
  assert(d >= 1 && d <= kMaxLatticeDims);
  static const std::vector<LevelConstants> table = [] {
    std::vector<LevelConstants> t(kMaxLatticeDims + 1);
    for (int dims = 1; dims <= kMaxLatticeDims; ++dims) {
      t[dims] = BuildLevelConstants(dims);
    }
    return t;
  }();
  return table[d];
}

double TotalSavingFactor(int m, const PruningPriors& priors,
                         const LatticeStore& state) {
  const int d = state.num_dims();
  assert(m >= 1 && m <= d);
  assert(priors.num_dims() == d);
  if (state.UndecidedCount(m) == 0) return 0.0;

  const LevelConstants& c = LevelConstantsFor(d);
  double tsf = 0.0;
  if (m > 1) {
    const uint64_t c_down = c.workload_below[m];
    const double f_down =
        c_down == 0 ? 0.0
                    : static_cast<double>(state.RemainingWorkloadBelow(m)) /
                          static_cast<double>(c_down);
    tsf += priors.down[m] * f_down * static_cast<double>(c.dsf[m]);
  }
  if (m < d) {
    const uint64_t c_up = c.workload_above[m];
    const double f_up =
        c_up == 0 ? 0.0
                  : static_cast<double>(state.RemainingWorkloadAbove(m)) /
                        static_cast<double>(c_up);
    tsf += priors.up[m] * f_up * static_cast<double>(c.usf[m]);
  }
  return tsf;
}

int BestLevel(const PruningPriors& priors, const LatticeStore& state,
              int exclude) {
  const int d = state.num_dims();
  int best = 0;
  double best_tsf = -1.0;
  for (int m = 1; m <= d; ++m) {
    if (m == exclude || state.UndecidedCount(m) == 0) continue;
    double tsf = TotalSavingFactor(m, priors, state);
    if (best == 0 || tsf > best_tsf) {
      best = m;
      best_tsf = tsf;
    }
  }
  return best;
}

}  // namespace hos::lattice
