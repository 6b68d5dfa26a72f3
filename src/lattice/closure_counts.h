// Closed-form per-level counting of seed closures in the subspace lattice.
//
// The sparse lattice backend tallies how many masks of each level the
// pruning seeds have decided without enumerating any level — at d = 32 the
// middle levels alone hold ~6e8 subspaces. The decided region is fully
// described by the two seed antichains (Properties 1-2: the outlying set is
// the up-closure of the minimal outlier seeds, the non-outlying set the
// down-closure of the maximal non-outlier seeds), so the per-level tallies
// reduce to counting m-subsets of [d] that contain (or are contained in) at
// least one seed. That union count is obtained by complementation from
// AvoidingSubsetCounts, a branch-and-prune recursion over the seed bits
// whose cost depends on the seed structure, not on C(d, m): each step
// branches one dimension of the smallest seed, so singleton-rich seed sets
// (the common high-d frontier-band shape) resolve in O(|seeds| * d). The
// recursion is memoised on the canonical (pruned seed set, remaining
// dimensions) subproblem, so pathological interlocking antichains — dense
// families of overlapping small seeds that reach the same pruned residue
// along many branch paths — cost the number of distinct subproblems rather
// than the number of paths.
//
// All counts are exact in uint64; the largest possible value is
// C(58, 29) < 2^63 (kMaxLatticeDims caps d at 58).

#ifndef HOS_LATTICE_CLOSURE_COUNTS_H_
#define HOS_LATTICE_CLOSURE_COUNTS_H_

#include <cstdint>
#include <vector>

namespace hos::lattice {

/// counts[j] (j in 0..d) = number of j-subsets of a d-dimensional ground
/// set that contain none of `seeds` as a subset. Seeds are dimension
/// bitmasks over the low d bits; a zero seed (the empty subspace) is
/// contained in everything, so its presence makes every count 0.
std::vector<uint64_t> AvoidingSubsetCounts(std::vector<uint64_t> seeds,
                                           int d);

/// counts[m] = number of m-subsets of [d] that are a (non-strict) superset
/// of at least one seed — the per-level size of the seeds' up-closure.
std::vector<uint64_t> UpClosureLevelCounts(const std::vector<uint64_t>& seeds,
                                           int d);

/// counts[m] = number of m-subsets of [d] that are a (non-strict) subset of
/// at least one seed — the per-level size of the seeds' down-closure.
/// Computed from UpClosureLevelCounts by complementing every mask.
std::vector<uint64_t> DownClosureLevelCounts(
    const std::vector<uint64_t>& seeds, int d);

}  // namespace hos::lattice

#endif  // HOS_LATTICE_CLOSURE_COUNTS_H_
