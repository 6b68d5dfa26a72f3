#include "src/lattice/dense_lattice_store.h"

#include <cassert>

#include "src/common/combinatorics.h"

namespace hos::lattice {

DenseLatticeStore::DenseLatticeStore(int num_dims) : LatticeStore(num_dims) {
  assert(num_dims >= 1 && num_dims <= kDenseMaxDims);
  state_.assign(uint64_t{1} << num_dims, 0);
  undecided_.resize(num_dims + 1);
  for (int m = 1; m <= num_dims; ++m) {
    undecided_[m] = MasksOfLevel(num_dims, m);
    undecided_count_[m] = undecided_[m].size();
  }
}

void DenseLatticeStore::Propagate() {
  if (pending_outlier_seeds_.empty() && pending_non_outlier_seeds_.empty()) {
    return;
  }
  for (int m = 1; m <= num_dims_; ++m) {
    auto& masks = undecided_[m];
    size_t write = 0;
    for (size_t read = 0; read < masks.size(); ++read) {
      const uint64_t mask = masks[read];
      if (state_[mask] != 0) continue;  // decided elsewhere; drop lazily
      bool decided = false;
      // Upward pruning: superset of an outlying seed => outlier.
      for (uint64_t seed : pending_outlier_seeds_) {
        if ((mask & seed) == seed && mask != seed) {
          state_[mask] =
              static_cast<uint8_t>(SubspaceState::kInferredOutlier);
          ++inferred_outliers_[m];
          decided = true;
          break;
        }
      }
      if (!decided) {
        // Downward pruning: subset of a non-outlying seed => non-outlier.
        for (uint64_t seed : pending_non_outlier_seeds_) {
          if ((mask & seed) == mask && mask != seed) {
            state_[mask] =
                static_cast<uint8_t>(SubspaceState::kInferredNonOutlier);
            ++inferred_non_outliers_[m];
            decided = true;
            break;
          }
        }
      }
      if (decided) {
        --undecided_count_[m];
      } else {
        masks[write++] = mask;
      }
    }
    masks.resize(write);
  }
  ClearPendingSeeds();
}

void DenseLatticeStore::ForEachUndecided(
    int m, const std::function<void(uint64_t)>& fn) const {
  // The stored vector is compacted only in Propagate, so it may still carry
  // masks evaluated since; filter on the fly without mutating (const).
  for (uint64_t mask : undecided_[m]) {
    if (state_[mask] == 0) fn(mask);
  }
}

}  // namespace hos::lattice
