// Saving factors (paper §3.1, Definitions 1-3) and the pruning-probability
// priors they are combined with (paper §3.2).
//
// TSF(m, p) scores how much future work evaluating level m is expected to
// save through the two pruning strategies; the dynamic search always
// explores the level with the highest TSF next.

#ifndef HOS_LATTICE_SAVING_FACTORS_H_
#define HOS_LATTICE_SAVING_FACTORS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/combinatorics.h"
#include "src/lattice/lattice_store.h"

namespace hos::lattice {

/// Per-level pruning probabilities p_up(m) and p_down(m), indexed by level
/// m in 1..d (index 0 unused).
struct PruningPriors {
  std::vector<double> up;
  std::vector<double> down;

  int num_dims() const { return static_cast<int>(up.size()) - 1; }

  /// The paper's §3.2 assignment for sample points (no prior knowledge):
  /// p_up = p_down = 0.5 for 1 < m < d; p_up(1) = 1, p_down(1) = 0;
  /// p_up(d) = 0, p_down(d) = 1.
  static PruningPriors Flat(int d);
};

/// The terms of Definition 3 that depend only on (m, d), indexed by level
/// m in 1..d: DSF(m), USF(m, d) and the total workloads C_down(m) and
/// C_up(m). Every entry equals its Binomial-sum definition in
/// combinatorics.h exactly in uint64.
struct LevelConstants {
  using PerLevel = std::array<uint64_t, kMaxLatticeDims + 1>;
  PerLevel dsf{};             ///< DownwardSavingFactor(m)
  PerLevel usf{};             ///< UpwardSavingFactor(m, d)
  PerLevel workload_below{};  ///< TotalWorkloadBelow(m, d)
  PerLevel workload_above{};  ///< TotalWorkloadAbove(m, d)
};

/// The constants for d in 1..kMaxLatticeDims. Built once per process, on
/// first use, for every d together; safe to call from any thread.
const LevelConstants& LevelConstantsFor(int d);

/// TSF(m, p) of Definition 3, combining DSF/USF with the priors and the
/// fractions f_down/f_up of remaining (undecided) workload in the lattice.
/// Levels with no undecided subspaces score 0. O(d): the remaining
/// workloads are sums over the levels below and above m.
double TotalSavingFactor(int m, const PruningPriors& priors,
                         const LatticeStore& state);

/// The level in 1..d with the highest TSF among levels that still have
/// undecided subspaces; returns 0 when every level is decided.
/// Ties break toward the lower level.
///
/// One O(d) pass rather than d TotalSavingFactor calls (O(d^2)): the
/// remaining workloads below and above each level are kept as running
/// prefix and suffix sums of UndecidedCount(m) * m. Those are the same
/// uint64 integers TotalSavingFactor sums, and both feed one shared TSF
/// expression, so each level's TSF, and with it the choice, is bitwise
/// TotalSavingFactor's.
int BestLevel(const PruningPriors& priors, const LatticeStore& state);

}  // namespace hos::lattice

#endif  // HOS_LATTICE_SAVING_FACTORS_H_
