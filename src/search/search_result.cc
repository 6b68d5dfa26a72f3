#include "src/search/search_result.h"

#include "src/lattice/closure_counts.h"

namespace hos::search {

uint64_t SearchOutcome::TotalOutlyingCount() const {
  std::vector<uint64_t> seeds;
  seeds.reserve(minimal_outlying_subspaces.size());
  for (const Subspace& s : minimal_outlying_subspaces) {
    seeds.push_back(s.mask());
  }
  const std::vector<uint64_t> per_level =
      lattice::UpClosureLevelCounts(seeds, num_dims);
  uint64_t total = 0;
  for (int m = 1; m <= num_dims; ++m) total += per_level[m];
  return total;
}

}  // namespace hos::search
