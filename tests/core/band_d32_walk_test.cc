// A d = 32 lattice walk checked without ExhaustiveSearch, which would have
// to evaluate all 2^32 - 1 subspaces. The data is the planted band of the
// highd-d32 benchmark workload (seed 703, n = 2,000, planted [1,2] and
// [3,4,5], displacement 0.6, T = 8.1), and the query is row 489, a
// full-space outlier whose walk decides 586 minimal outlying subspaces at
// levels 26..30 in 3,116 evaluations.
//
// Every OD the checks need comes from testutil::OracleKnn, which scans the
// rows through the scalar metric path with no kernel and no leaf table:
//  * soundness: each minimal subspace has OD >= T, and each of its
//    (|s| - 1)-subsets (a seeded sample of them) has OD < T;
//  * sampled completeness: for random masks, weighted toward the levels
//    the answer lives on, IsOutlying(s) equals OD(s) >= T;
//  * the closure identity: evaluations plus both prunings cover the
//    lattice;
//  * a golden of the sorted answer (its level histogram and a hash of the
//    masks) and of the work counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/hos_miner.h"
#include "src/data/generator.h"
#include "tests/testutil/knn_oracle.h"

namespace hos::core {
namespace {

constexpr int kDims = 32;
constexpr double kThreshold = 8.1;
constexpr data::PointId kQuery = 489;
/// (|s| - 1)-subsets checked per minimal subspace s, and random masks
/// checked for completeness.
constexpr size_t kSubsetsPerAnswer = 4;
constexpr int kSampledMasks = 3000;

/// Minimal outlying subspaces per level, and the FNV-1a hash of their
/// sorted masks.
const std::map<int, size_t> kGoldenLevels = {
    {26, 35}, {27, 195}, {28, 259}, {29, 77}, {30, 20}};
constexpr uint64_t kGoldenHash = 9072868523251208587u;

class BandD32WalkTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(703);
    data::SubspaceOutlierSpec spec;
    spec.num_points = 2000;
    spec.num_dims = kDims;
    spec.planted_subspaces = {Subspace::FromOneBased({1, 2}),
                              Subspace::FromOneBased({3, 4, 5})};
    spec.displacement = 0.6;
    auto generated = data::GenerateSubspaceOutliers(spec, &rng);
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    HosMinerConfig config;
    config.index = IndexKind::kXTree;
    config.threshold = kThreshold;
    auto miner = HosMiner::Build(std::move(generated->dataset), config);
    ASSERT_TRUE(miner.ok()) << miner.status().ToString();
    miner_ = new HosMiner(std::move(miner).value());
    auto result = miner_->Query(kQuery);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    result_ = new QueryResult(std::move(result).value());
  }

  static void TearDownTestSuite() {
    delete result_;
    delete miner_;
    result_ = nullptr;
    miner_ = nullptr;
  }

  /// OD(row kQuery, s) through the scalar oracle.
  static double OracleOd(const Subspace& s) {
    const data::Dataset& ds = miner_->dataset();
    double sum = 0.0;
    for (const knn::Neighbor& n :
         testutil::OracleKnn(ds, ds.Row(kQuery), s, knn::MetricKind::kL2,
                             kQuery, miner_->config().k)) {
      sum += n.distance;
    }
    return sum;
  }

  static const std::vector<Subspace>& Answer() {
    return result_->outcome.minimal_outlying_subspaces;
  }

  static HosMiner* miner_;
  static QueryResult* result_;
};

HosMiner* BandD32WalkTest::miner_ = nullptr;
QueryResult* BandD32WalkTest::result_ = nullptr;

TEST_F(BandD32WalkTest, WalkMatchesItsGolden) {
  ASSERT_NE(result_, nullptr);
  EXPECT_EQ(miner_->threshold(), kThreshold);
  const search::SearchCounters& c = result_->outcome.counters;
  EXPECT_EQ(c.od_evaluations, 3116u);
  EXPECT_EQ(c.pruned_downward, 4294964179u);
  EXPECT_EQ(c.pruned_upward, 0u);
  EXPECT_EQ(result_->outcome.TotalOutlyingCount(), 1943u);
  // Closure identity: every subspace is evaluated or pruned exactly once.
  EXPECT_EQ(c.od_evaluations + c.pruned_upward + c.pruned_downward,
            (uint64_t{1} << kDims) - 1);

  std::vector<uint64_t> masks;
  std::map<int, size_t> per_level;
  for (const Subspace& s : Answer()) {
    masks.push_back(s.mask());
    ++per_level[s.Dimensionality()];
  }
  std::sort(masks.begin(), masks.end());
  EXPECT_EQ(std::adjacent_find(masks.begin(), masks.end()), masks.end());
  ASSERT_EQ(masks.size(), 586u);
  EXPECT_EQ(per_level.begin()->first, 26);
  EXPECT_EQ(per_level.rbegin()->first, 30);
  // FNV-1a over the sorted masks, so any change to the answer shows.
  uint64_t hash = 14695981039346656037u;
  for (uint64_t mask : masks) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (mask >> (8 * byte)) & 0xff;
      hash *= 1099511628211u;
    }
  }
  EXPECT_EQ(per_level, kGoldenLevels);
  EXPECT_EQ(hash, kGoldenHash);
}

TEST_F(BandD32WalkTest, MinimalSubspacesAreSoundUnderTheOracle) {
  ASSERT_NE(result_, nullptr);
  // Every minimal subspace is outlying; a seeded sample of its
  // (|s| - 1)-subsets, shared subsets checked once, is not.
  Rng rng(4890);
  std::set<uint64_t> subsets;
  for (const Subspace& s : Answer()) {
    EXPECT_GE(OracleOd(s), kThreshold) << "mask 0x" << std::hex << s.mask();
    std::vector<uint64_t> bits;
    for (uint64_t rest = s.mask(); rest != 0; rest &= rest - 1) {
      bits.push_back(uint64_t{1} << std::countr_zero(rest));
    }
    rng.Shuffle(&bits);
    for (size_t i = 0; i < std::min<size_t>(bits.size(), kSubsetsPerAnswer);
         ++i) {
      subsets.insert(s.mask() & ~bits[i]);
    }
  }
  EXPECT_GT(subsets.size(), Answer().size());
  for (uint64_t subset : subsets) {
    EXPECT_LT(OracleOd(Subspace(subset)), kThreshold)
        << "mask 0x" << std::hex << subset;
  }
}

TEST_F(BandD32WalkTest, SampledMasksAgreeWithTheOracle) {
  ASSERT_NE(result_, nullptr);
  // Three masks in four come from levels 24..31, around the answer's
  // levels; the rest from any level.
  Rng rng(48900);
  std::vector<int> dims(kDims);
  for (int i = 0; i < kDims; ++i) dims[i] = i;
  size_t outlying = 0;
  for (int trial = 0; trial < kSampledMasks; ++trial) {
    const int m = rng.Bernoulli(0.75)
                      ? static_cast<int>(rng.UniformInt(24, 31))
                      : static_cast<int>(rng.UniformInt(1, kDims));
    rng.Shuffle(&dims);
    uint64_t mask = 0;
    for (int i = 0; i < m; ++i) mask |= uint64_t{1} << dims[i];
    const Subspace s(mask);
    const bool want = OracleOd(s) >= kThreshold;
    outlying += want;
    ASSERT_EQ(result_->outcome.IsOutlying(s), want)
        << "mask 0x" << std::hex << mask << std::dec << " (level " << m
        << ")";
  }
  // The sample is not vacuous: it holds verdicts of both kinds.
  EXPECT_GT(outlying, 0u);
  EXPECT_LT(outlying, static_cast<size_t>(kSampledMasks));
}

}  // namespace
}  // namespace hos::core
