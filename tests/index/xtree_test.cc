#include "src/index/xtree.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "tests/testutil/knn_oracle.h"

namespace hos::index {
namespace {

using knn::KnnQuery;
using knn::MetricKind;

TEST(XTreeTest, EmptyTreeAnswersEmpty) {
  data::Dataset ds(2);
  auto tree = XTree::BulkLoad(ds, MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  std::vector<double> q{0.0, 0.0};
  KnnQuery query;
  query.point = q;
  query.subspace = Subspace::Full(2);
  query.k = 3;
  EXPECT_TRUE(tree->Search(query).empty());
  EXPECT_TRUE(tree->RangeSearch(q, Subspace::Full(2), 1.0).empty());
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST(XTreeTest, SinglePoint) {
  data::Dataset ds(2);
  ds.Append(std::vector<double>{0.5, 0.5});
  auto tree = XTree::BulkLoad(ds, MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  std::vector<double> q{0.0, 0.0};
  KnnQuery query;
  query.point = q;
  query.subspace = Subspace::Full(2);
  query.k = 5;
  auto result = tree->Search(query);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 0u);
}

TEST(XTreeTest, BulkLoadInvariantsAndShape) {
  Rng rng(4);
  data::Dataset ds = data::GenerateUniform(2000, 6, &rng);
  auto tree = XTree::BulkLoad(ds, MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  auto stats = tree->ComputeStats();
  EXPECT_EQ(stats.num_points, 2000u);
  // STR packs leaves near capacity.
  EXPECT_GE(stats.num_leaves, 2000u / XTree::kLeafCapacity);
  EXPECT_LE(stats.num_leaves, 2000u / 16);
}

// --- Equivalence with the scalar oracle, across metrics and subspaces:
// --- the core correctness property (the paper uses one full-dimensional
// --- X-tree for kNN in *every* subspace).

class XTreeEquivalenceTest : public ::testing::TestWithParam<MetricKind> {};

TEST_P(XTreeEquivalenceTest, MatchesOracleInRandomSubspaces) {
  const MetricKind metric = GetParam();
  Rng rng(11);
  const int d = 6;
  data::GaussianMixtureSpec spec;
  spec.num_points = 700;
  spec.num_dims = d;
  data::Dataset ds = data::GenerateGaussianMixture(spec, &rng);

  auto tree = XTree::BulkLoad(ds, metric);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());

  for (int trial = 0; trial < 40; ++trial) {
    data::PointId id =
        static_cast<data::PointId>(rng.UniformInt(0, ds.size() - 1));
    uint64_t mask = rng.UniformInt(1, (1 << d) - 1);
    auto row = ds.Row(id);
    KnnQuery query;
    query.point = row;
    query.subspace = Subspace(mask);
    query.k = 1 + static_cast<int>(rng.UniformInt(0, 9));
    query.exclude = id;

    EXPECT_EQ(tree->Search(query),
              testutil::OracleKnn(ds, row, query.subspace, metric, id,
                                  query.k))
        << "trial " << trial;
  }
}

TEST_P(XTreeEquivalenceTest, RangeSearchMatchesOracle) {
  const MetricKind metric = GetParam();
  Rng rng(13);
  data::Dataset ds = data::GenerateUniform(500, 5, &rng);
  auto tree = XTree::BulkLoad(ds, metric);
  ASSERT_TRUE(tree.ok());

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> q(5);
    for (auto& v : q) v = rng.Uniform();
    uint64_t mask = rng.UniformInt(1, 31);
    double radius = rng.Uniform(0.05, 0.4);
    EXPECT_EQ(tree->RangeSearch(q, Subspace(mask), radius),
              testutil::OracleRange(ds, q, Subspace(mask), metric, radius))
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Metrics, XTreeEquivalenceTest,
    ::testing::Values(MetricKind::kL2, MetricKind::kL1, MetricKind::kLInf),
    [](const auto& info) {
      return std::string(knn::MetricKindToString(info.param));
    });

TEST(XTreeTest, IsAKnnEngine) {
  Rng rng(19);
  data::Dataset ds = data::GenerateUniform(200, 3, &rng);
  auto tree = XTree::BulkLoad(ds, MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  const knn::KnnEngine& engine = *tree;
  EXPECT_EQ(engine.size(), 200u);
  EXPECT_EQ(engine.metric(), MetricKind::kL2);
  EXPECT_EQ(engine.backend_stats().backend, "xtree");
  std::vector<double> q{0.5, 0.5, 0.5};
  KnnQuery query;
  query.point = q;
  query.subspace = Subspace::Full(3);
  query.k = 3;
  EXPECT_EQ(engine.Search(query).size(), 3u);
  EXPECT_GT(engine.distance_computations(), 0u);
}

TEST(XTreeTest, PrunesNodesComparedToLinearScan) {
  // The index must touch fewer points than a scan on clustered data.
  Rng rng(23);
  data::GaussianMixtureSpec spec;
  spec.num_points = 5000;
  spec.num_dims = 4;
  data::Dataset ds = data::GenerateGaussianMixture(spec, &rng);
  auto tree = XTree::BulkLoad(ds, MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  std::vector<double> q{0.5, 0.5, 0.5, 0.5};
  KnnQuery query;
  query.point = q;
  query.subspace = Subspace::Full(4);
  query.k = 5;
  tree->Search(query);
  EXPECT_LT(tree->distance_computations(), 5000u / 2);
}

// Rows tombstoned before the build get snapshot positions past every leaf,
// with zeroed columns. A query must sweep only the leaves: with
// self-exclusion it examines at most size() - 1 rows, even when k exceeds
// the live rows and nothing can be skipped.
TEST(XTreeTest, SweepStopsAtTheLeavesWhenRowsWereDeadAtBuild) {
  Rng rng(29);
  data::Dataset ds = data::GenerateUniform(600, 5, &rng);
  std::vector<data::PointId> dead;
  for (data::PointId id = 3; id < ds.size(); id += 7) dead.push_back(id);
  ASSERT_TRUE(ds.DeleteRows(dead).ok());
  const std::vector<data::PointId> live = ds.LiveIds();

  auto tree = XTree::BulkLoad(ds, MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  ASSERT_EQ(tree->size(), live.size());
  for (int trial = 0; trial < 30; ++trial) {
    const data::PointId id = live[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
    KnnQuery query;
    query.point = ds.Row(id);
    query.subspace = Subspace::Full(5);
    query.k = trial % 3 == 0 ? static_cast<int>(live.size()) + 2 : 5;
    query.exclude = id;

    const uint64_t before = tree->distance_computations();
    const auto got = tree->Search(query);
    EXPECT_LE(tree->distance_computations() - before, tree->size() - 1)
        << "trial " << trial;
    EXPECT_EQ(got, testutil::OracleKnn(ds, query.point, query.subspace,
                                       MetricKind::kL2, id, query.k))
        << "trial " << trial;
  }
}

TEST(XTreeTest, DuplicatePointsHandled) {
  data::Dataset ds(2);
  for (int i = 0; i < 100; ++i) {
    ds.Append(std::vector<double>{1.0, 1.0});
  }
  auto tree = XTree::BulkLoad(ds, MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  std::vector<double> q{1.0, 1.0};
  KnnQuery query;
  query.point = q;
  query.subspace = Subspace::Full(2);
  query.k = 7;
  auto result = tree->Search(query);
  ASSERT_EQ(result.size(), 7u);
  // Ties broken by ascending id, matching the oracle.
  for (size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(result[i].id, i);
    EXPECT_DOUBLE_EQ(result[i].distance, 0.0);
  }
}

}  // namespace
}  // namespace hos::index
