#include "src/lattice/closure_counts.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <span>
#include <unordered_map>
#include <utility>

#include "src/common/combinatorics.h"

namespace hos::lattice {
namespace {

/// The canonical seed order: by popcount, then by value. Memo keys use it,
/// and it puts the seed closest to forcing a decision first.
bool CanonicalLess(uint64_t a, uint64_t b) {
  const int pa = std::popcount(a), pb = std::popcount(b);
  return pa != pb ? pa < pb : a < b;
}

/// True when `s` contains one of `subsets`.
bool ContainsAny(uint64_t s, std::span<const uint64_t> subsets) {
  return std::any_of(subsets.begin(), subsets.end(),
                     [s](uint64_t k) { return (s & k) == k; });
}

/// Sorts canonically and drops duplicates and seeds that are supersets of
/// another seed: a mask avoiding the subset seed necessarily avoids the
/// superset, so the larger constraint is implied. Leaves the family an
/// antichain, which bounds the branching. Only a kept seed of smaller
/// popcount can imply a seed, so only those are compared.
void PruneImpliedSeeds(std::vector<uint64_t>* seeds) {
  std::sort(seeds->begin(), seeds->end(), CanonicalLess);
  std::vector<uint64_t> kept;
  kept.reserve(seeds->size());
  size_t smaller = 0;  // kept[0, smaller) have popcount < the current one
  for (size_t i = 0; i < seeds->size(); ++i) {
    const uint64_t s = (*seeds)[i];
    if (i > 0 && std::popcount(s) != std::popcount((*seeds)[i - 1])) {
      smaller = kept.size();
    }
    if (!kept.empty() && kept.back() == s) continue;
    if (!ContainsAny(s, std::span(kept).first(smaller))) kept.push_back(s);
  }
  *seeds = std::move(kept);
}

/// Memo key for one branch-and-prune subproblem: the canonical (pruned and
/// sorted) seed antichain together with how many dimensions remain
/// unbranched. `free_dims` must be part of the key — the same antichain
/// yields different Binomial tails under different remaining budgets.
struct AvoidMemoKey {
  int free_dims = 0;
  std::vector<uint64_t> seeds;
  bool operator==(const AvoidMemoKey&) const = default;
};

struct AvoidMemoKeyHash {
  size_t operator()(const AvoidMemoKey& key) const {
    uint64_t h = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(key.free_dims);
    for (uint64_t s : key.seeds) {
      h ^= s + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    }
    return static_cast<size_t>(h);
  }
};

using AvoidMemo =
    std::unordered_map<AvoidMemoKey, std::vector<uint64_t>, AvoidMemoKeyHash>;

/// counts[j] = number of ways to choose j of `free_dims` yet-unbranched
/// dimensions such that the chosen set avoids all `seeds`, a canonical
/// antichain (PruneImpliedSeeds). Seeds always live entirely within the
/// unbranched dimensions: the exclude branch removes every seed containing
/// the branched bit (its constraint is now vacuous), the include branch
/// strips the bit from every seed.
///
/// Memoised on the canonical subproblem: interlocking antichains (dense
/// families of overlapping pair/triple seeds) reach the same pruned seed
/// set along exponentially many branch paths, and without the memo each
/// path re-expands the identical subtree. With it, cost is bounded by the
/// number of *distinct* subproblems, which for those pathological families
/// is polynomial in |seeds| and d.
const std::vector<uint64_t>& AvoidCounts(std::vector<uint64_t> seeds,
                                         int free_dims, AvoidMemo* memo) {
  AvoidMemoKey key{free_dims, std::move(seeds)};
  auto it = memo->find(key);
  if (it != memo->end()) return it->second;

  std::vector<uint64_t> counts(free_dims + 1, 0);
  if (key.seeds.empty()) {
    for (int j = 0; j <= free_dims; ++j) counts[j] = Binomial(free_dims, j);
  } else if (key.seeds.front() != 0) {  // a zero seed decides everything: 0s
    // Branch on one dimension of the smallest seed (front in canonical
    // order): this is the seed closest to forcing a decision, so singletons
    // resolve without any fan-out.
    const uint64_t bit = key.seeds.front() & (~key.seeds.front() + 1);

    // Dimension excluded: seeds containing it can never be covered. The
    // rest is still a canonical antichain.
    std::vector<uint64_t> excluded;
    excluded.reserve(key.seeds.size());
    for (uint64_t s : key.seeds) {
      if ((s & bit) == 0) excluded.push_back(s);
    }
    const std::vector<uint64_t>& ex =
        AvoidCounts(std::move(excluded), free_dims - 1, memo);
    for (int j = 0; j < free_dims; ++j) counts[j] += ex[j];

    // Dimension included: every seed sheds the bit; a seed reduced to zero
    // is now fully contained, so that branch holds no avoiders. Stripping
    // keeps the stripped seeds canonical among themselves, and a stripped
    // seed can only now sit inside a seed that never held the bit (any
    // other nesting existed before the strip), so only those pairs are
    // pruned.
    std::vector<uint64_t> included;
    std::vector<uint64_t> untouched;
    included.reserve(key.seeds.size());
    bool contradiction = false;
    for (uint64_t s : key.seeds) {
      if ((s & bit) == 0) {
        untouched.push_back(s);
        continue;
      }
      const uint64_t rest = s & ~bit;
      if (rest == 0) {
        contradiction = true;
        break;
      }
      included.push_back(rest);
    }
    if (!contradiction) {
      // Both lists ascend in popcount, so the stripped seeds small enough
      // to sit inside the current untouched one form a growing prefix.
      const size_t stripped = included.size();
      size_t smaller = 0;
      for (uint64_t u : untouched) {
        while (smaller < stripped &&
               std::popcount(included[smaller]) < std::popcount(u)) {
          ++smaller;
        }
        if (!ContainsAny(u, std::span(included).first(smaller))) {
          included.push_back(u);
        }
      }
      std::inplace_merge(included.begin(), included.begin() + stripped,
                         included.end(), CanonicalLess);
      const std::vector<uint64_t>& inc =
          AvoidCounts(std::move(included), free_dims - 1, memo);
      for (int j = 0; j < free_dims; ++j) counts[j + 1] += inc[j];
    }
  }
  // Mapped references are stable under unordered_map rehash, so handing
  // them out across recursive insertions is safe.
  return memo->emplace(std::move(key), std::move(counts)).first->second;
}

uint64_t LowBits(int d) {
  return d >= 64 ? ~uint64_t{0} : (uint64_t{1} << d) - 1;
}

}  // namespace

std::vector<uint64_t> AvoidingSubsetCounts(std::vector<uint64_t> seeds,
                                           int d) {
  assert(d >= 0 && d <= 62);
  std::vector<uint64_t> out(d + 1, 0);
  for (uint64_t& s : seeds) {
    s &= LowBits(d);
    if (s == 0) return out;  // the empty seed is contained in every mask
  }
  PruneImpliedSeeds(&seeds);
  // The memo lives for one top-level count: repeated subproblems only arise
  // across branch paths of the same recursion, and keying on the canonical
  // seed vector keeps entries valid without any cross-call invalidation
  // story.
  AvoidMemo memo;
  return AvoidCounts(std::move(seeds), d, &memo);
}

std::vector<uint64_t> UpClosureLevelCounts(const std::vector<uint64_t>& seeds,
                                           int d) {
  std::vector<uint64_t> counts(d + 1, 0);
  if (seeds.empty()) return counts;
  const std::vector<uint64_t> avoid = AvoidingSubsetCounts(seeds, d);
  for (int m = 0; m <= d; ++m) {
    counts[m] = Binomial(d, m) - avoid[m];
  }
  return counts;
}

std::vector<uint64_t> DownClosureLevelCounts(
    const std::vector<uint64_t>& seeds, int d) {
  std::vector<uint64_t> counts(d + 1, 0);
  if (seeds.empty()) return counts;
  // mask ⊆ seed  ⇔  ~mask ⊇ ~seed (complements within the d-bit universe),
  // so the down-closure at level m is the complemented seeds' up-closure at
  // level d - m.
  std::vector<uint64_t> complements;
  complements.reserve(seeds.size());
  for (uint64_t s : seeds) complements.push_back(~s & LowBits(d));
  const std::vector<uint64_t> up = UpClosureLevelCounts(complements, d);
  for (int m = 0; m <= d; ++m) {
    counts[m] = up[d - m];
  }
  return counts;
}

}  // namespace hos::lattice
