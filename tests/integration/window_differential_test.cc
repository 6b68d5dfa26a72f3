// The sliding-window exactness contract, end to end: a miner that appended
// rows, deleted some and evicted others must answer queries bitwise
// identically to a miner freshly built on the surviving rows only — same
// minimal outlying subspaces, same OD values to the last bit — across
// every kNN backend, both lattice stores, and before and after a rebuild
// physically folds the tombstones away. Normalization is off and the
// threshold fixed so both arms operate on the same coordinates and the
// same T (the contract explicitly excludes re-fitting those).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/core/hos_miner.h"
#include "src/data/dataset.h"
#include "src/data/generator.h"
#include "src/knn/knn_engine.h"
#include "tests/testutil/adversarial_gen.h"

namespace hos {
namespace {

constexpr int kDims = 6;
constexpr size_t kInitialRows = 60;
constexpr size_t kAppendedRows = 20;
constexpr int kK = 3;
constexpr double kThreshold = 0.9;

core::HosMinerConfig MinerConfig(core::IndexKind index) {
  core::HosMinerConfig config;
  config.k = kK;
  config.threshold = kThreshold;
  config.normalization = data::NormalizationKind::kNone;
  config.index = index;
  config.sample_size = 4;
  config.seed = 42;
  return config;
}

/// Sorted subspace masks of an outcome's refined answer set.
std::vector<uint64_t> AnswerMasks(const core::QueryResult& result) {
  std::vector<uint64_t> masks;
  for (const Subspace& s : result.outlying_subspaces()) {
    masks.push_back(s.mask());
  }
  std::sort(masks.begin(), masks.end());
  return masks;
}

/// The windowed arm: build on the initial rows, append, delete, evict.
/// Returns the miner; survivor ids (ascending) land in `survivors`.
core::HosMiner BuildWindowedMiner(core::IndexKind index,
                                  std::vector<data::PointId>* survivors) {
  Rng data_rng(5);
  data::Dataset dataset =
      data::GenerateUniform(kInitialRows + kAppendedRows, kDims, &data_rng);
  // Split the generated rows: the tail is appended through the streaming
  // path so it lives in the delta (no rebuild before the queries).
  std::vector<std::vector<double>> tail;
  for (size_t i = kInitialRows; i < dataset.size(); ++i) {
    tail.push_back(dataset.RowCopy(static_cast<data::PointId>(i)));
  }
  data::Dataset initial(kDims);
  for (size_t i = 0; i < kInitialRows; ++i) {
    initial.Append(dataset.Row(static_cast<data::PointId>(i)));
  }

  auto built = core::HosMiner::Build(std::move(initial), MinerConfig(index));
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  core::HosMiner miner = std::move(built).value();
  EXPECT_TRUE(miner.Append(tail).ok());

  // Deletes hit the sealed base and the delta; eviction takes the oldest.
  const std::vector<data::PointId> doomed = {3, 10, 33, 61, 70};
  EXPECT_TRUE(miner.Delete(doomed).ok());
  EXPECT_EQ(miner.EvictOldest(2), 2u);  // rows 0 and 1

  survivors->clear();
  for (data::PointId id = 0;
       id < static_cast<data::PointId>(miner.dataset().size()); ++id) {
    if (miner.dataset().IsLive(id)) survivors->push_back(id);
  }
  EXPECT_EQ(survivors->size(), kInitialRows + kAppendedRows - 7);
  return miner;
}

/// The fresh arm: a miner built from scratch on the survivors only, in the
/// same order (fresh id j corresponds to windowed id survivors[j]).
core::HosMiner BuildFreshMiner(const core::HosMiner& windowed,
                               const std::vector<data::PointId>& survivors,
                               core::IndexKind index) {
  data::Dataset fresh(kDims);
  for (data::PointId id : survivors) {
    fresh.Append(windowed.dataset().Row(id));
  }
  auto built = core::HosMiner::Build(std::move(fresh), MinerConfig(index));
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

void ExpectSameAnswers(const core::HosMiner& windowed,
                       const core::HosMiner& fresh,
                       const std::vector<data::PointId>& survivors,
                       lattice::LatticeBackend backend) {
  core::QueryOptions options;
  options.lattice_backend = backend;
  for (size_t j = 0; j < survivors.size(); ++j) {
    auto w = windowed.Query(survivors[j], options);
    auto f = fresh.Query(static_cast<data::PointId>(j), options);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    EXPECT_EQ(AnswerMasks(*w), AnswerMasks(*f))
        << "answer sets diverge for windowed id " << survivors[j];
    EXPECT_EQ(w->is_outlier_anywhere(), f->is_outlier_anywhere());
  }
}

/// Bitwise OD equality between the arms, in the full space and a few
/// proper subspaces, for every survivor.
void ExpectBitwiseOds(const core::HosMiner& windowed,
                      const core::HosMiner& fresh,
                      const std::vector<data::PointId>& survivors) {
  const std::vector<uint64_t> masks = {
      (uint64_t{1} << kDims) - 1, 0b000001, 0b001010, 0b110101};
  for (size_t j = 0; j < survivors.size(); ++j) {
    for (uint64_t mask : masks) {
      knn::KnnQuery wq;
      wq.point = windowed.dataset().Row(survivors[j]);
      wq.subspace = Subspace(mask);
      wq.k = kK;
      wq.exclude = survivors[j];
      knn::KnnQuery fq = wq;
      fq.point = fresh.dataset().Row(static_cast<data::PointId>(j));
      fq.exclude = static_cast<data::PointId>(j);
      const double wod = knn::OutlyingDegree(windowed.engine(), wq);
      const double fod = knn::OutlyingDegree(fresh.engine(), fq);
      EXPECT_EQ(wod, fod) << "OD diverges bitwise for windowed id "
                          << survivors[j] << " mask " << mask;
    }
  }
}

class WindowDifferentialTest
    : public ::testing::TestWithParam<core::IndexKind> {};

TEST_P(WindowDifferentialTest, WindowedEqualsFreshBuildOnSurvivors) {
  std::vector<data::PointId> survivors;
  core::HosMiner windowed = BuildWindowedMiner(GetParam(), &survivors);
  core::HosMiner fresh = BuildFreshMiner(windowed, survivors, GetParam());

  // Tombstone-filtered serving (delta + tombstones unsealed).
  ExpectBitwiseOds(windowed, fresh, survivors);
  ExpectSameAnswers(windowed, fresh, survivors,
                    lattice::LatticeBackend::kDense);
  ExpectSameAnswers(windowed, fresh, survivors,
                    lattice::LatticeBackend::kSparse);

  // Dead ids answer NotFound (never a stale value, never a crash).
  auto dead = windowed.Query(3);
  EXPECT_TRUE(dead.status().IsNotFound()) << dead.status().ToString();
  auto oob = windowed.Query(
      static_cast<data::PointId>(windowed.dataset().size()));
  EXPECT_TRUE(oob.status().IsOutOfRange());

  // Screening sees only survivors, with bitwise-equal ODs.
  auto ws = windowed.ScreenOutliers();
  auto fs = fresh.ScreenOutliers();
  ASSERT_EQ(ws.size(), fs.size());
  for (size_t i = 0; i < ws.size(); ++i) {
    const auto it =
        std::lower_bound(survivors.begin(), survivors.end(), ws[i].id);
    ASSERT_TRUE(it != survivors.end() && *it == ws[i].id)
        << "screened id " << ws[i].id << " is not a survivor";
    EXPECT_EQ(ws[i].full_space_od, fs[i].full_space_od);
  }

  // After a rebuild physically folds the tombstones, everything above
  // still holds bitwise (and the dead prefix chunk storage is reclaimable
  // without disturbing answers).
  ASSERT_TRUE(windowed.Rebuild().ok());
  EXPECT_EQ(windowed.delta_rows(), 0u);
  EXPECT_EQ(windowed.dataset().unsealed_tombstones(), 0u);
  ExpectBitwiseOds(windowed, fresh, survivors);
  ExpectSameAnswers(windowed, fresh, survivors,
                    lattice::LatticeBackend::kDense);
  EXPECT_TRUE(windowed.Query(3).status().IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, WindowDifferentialTest,
                         ::testing::Values(core::IndexKind::kLinearScan,
                                           core::IndexKind::kXTree),
                         [](const auto& info) {
                           return info.param == core::IndexKind::kXTree
                                      ? "XTree"
                                      : "LinearScan";
                         });

// The windowed-equals-fresh contract on adversarially generated data:
// tombstones land inside near-threshold rings and next to exact duplicates,
// so a backend that mishandles dead rows flips verdicts engineered to sit
// at T ± 3% rather than comfortably away from it.
TEST_P(WindowDifferentialTest, AdversarialWindowedEqualsFresh) {
  testutil::AdversarialSpec spec;
  spec.num_dims = kDims;
  spec.k = kK;
  spec.threshold = kThreshold;
  spec.seed = 31337;
  testutil::AdversarialDataset scenario = testutil::MakeAdversarial(spec);

  core::HosMinerConfig config = MinerConfig(GetParam());
  auto built = core::HosMiner::Build(testutil::ToDataset(scenario), config);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  core::HosMiner windowed = std::move(built).value();
  ASSERT_TRUE(windowed.Delete(scenario.tombstones).ok());

  std::vector<data::PointId> survivors;
  for (data::PointId id = 0;
       id < static_cast<data::PointId>(windowed.dataset().size()); ++id) {
    if (windowed.dataset().IsLive(id)) survivors.push_back(id);
  }
  core::HosMiner fresh = BuildFreshMiner(windowed, survivors, GetParam());

  ExpectBitwiseOds(windowed, fresh, survivors);
  ExpectSameAnswers(windowed, fresh, survivors,
                    lattice::LatticeBackend::kDense);
  ExpectSameAnswers(windowed, fresh, survivors,
                    lattice::LatticeBackend::kSparse);

  // And after the tombstones are folded physically.
  ASSERT_TRUE(windowed.Rebuild().ok());
  ExpectBitwiseOds(windowed, fresh, survivors);
  ExpectSameAnswers(windowed, fresh, survivors,
                    lattice::LatticeBackend::kDense);
}

}  // namespace
}  // namespace hos
