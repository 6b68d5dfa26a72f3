#include "src/index/xtree.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "src/knn/linear_scan.h"

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
  EXPECT_TRUE(tree->Knn(query).empty());
  EXPECT_TRUE(tree->RangeSearch(q, Subspace::Full(2), 1.0).empty());
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST(XTreeTest, SinglePoint) {
  data::Dataset ds(2);
  ds.Append(std::vector<double>{0.5, 0.5});
  auto tree = XTree::BuildByInsertion(ds, MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  std::vector<double> q{0.0, 0.0};
  KnnQuery query;
  query.point = q;
  query.subspace = Subspace::Full(2);
  query.k = 5;
  auto result = tree->Knn(query);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 0u);
}

TEST(XTreeTest, InvariantsHoldThroughIncrementalInserts) {
  Rng rng(3);
  const data::Dataset all = data::GenerateUniform(800, 4, &rng);
  // The insertion build on every 100-row prefix: the tree after n inserts.
  for (size_t rows = 100; rows <= all.size(); rows += 100) {
    data::Dataset prefix(all.num_dims());
    for (data::PointId id = 0; id < rows; ++id) prefix.Append(all.Row(id));
    auto tree = XTree::BuildByInsertion(prefix, MetricKind::kL2);
    ASSERT_TRUE(tree.ok());
    ASSERT_TRUE(tree->CheckInvariants().ok()) << "after " << rows << " rows";
    const XTreeStats stats = tree->ComputeStats();
    EXPECT_EQ(stats.num_points, rows);
    EXPECT_GT(stats.num_leaves, 1u);
    EXPECT_GE(stats.height, 2);
  }
}

TEST(XTreeTest, BulkLoadInvariantsAndShape) {
  Rng rng(4);
  data::Dataset ds = data::GenerateUniform(2000, 6, &rng);
  auto tree = XTree::BulkLoad(ds, MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  auto stats = tree->ComputeStats();
  EXPECT_EQ(stats.num_points, 2000u);
  // STR packs nodes near the bulk fill factor.
  EXPECT_LE(stats.num_leaves, 2000u / 16);
}

TEST(XTreeTest, HighDimClusteredDataCreatesSupernodes) {
  // Heavily clustered high-dimensional data makes low-overlap directory
  // splits impossible — the X-tree answer is supernodes.
  Rng rng(5);
  data::GaussianMixtureSpec spec;
  spec.num_points = 4000;
  spec.num_dims = 12;
  spec.num_clusters = 3;
  spec.cluster_stddev = 0.18;
  data::Dataset ds = data::GenerateGaussianMixture(spec, &rng);
  XTreeConfig config;
  config.max_entries = 8;
  config.max_overlap_ratio = 0.05;
  auto tree = XTree::BuildByInsertion(ds, MetricKind::kL2, config);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  EXPECT_GT(tree->ComputeStats().num_supernodes, 0u);
}

// --- Equivalence with the linear-scan oracle, across metrics, build
// --- methods and subspaces: the core correctness property (the paper uses
// --- one full-dimensional X-tree for kNN in *every* subspace).

struct EquivalenceParam {
  MetricKind metric;
  bool bulk;
};

class XTreeEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(XTreeEquivalenceTest, MatchesLinearScanInRandomSubspaces) {
  const auto param = GetParam();
  Rng rng(11);
  const int d = 6;
  data::GaussianMixtureSpec spec;
  spec.num_points = 700;
  spec.num_dims = d;
  data::Dataset ds = data::GenerateGaussianMixture(spec, &rng);

  auto tree = param.bulk ? XTree::BulkLoad(ds, param.metric)
                         : XTree::BuildByInsertion(ds, param.metric);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  knn::LinearScanKnn oracle(ds, param.metric);

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

    auto got = tree->Knn(query);
    auto want = oracle.Search(query);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << "trial " << trial << " i " << i;
      EXPECT_NEAR(got[i].distance, want[i].distance, 1e-9);
    }
  }
}

TEST_P(XTreeEquivalenceTest, RangeSearchMatchesLinearScan) {
  const auto param = GetParam();
  Rng rng(13);
  data::Dataset ds = data::GenerateUniform(500, 5, &rng);
  auto tree = param.bulk ? XTree::BulkLoad(ds, param.metric)
                         : XTree::BuildByInsertion(ds, param.metric);
  ASSERT_TRUE(tree.ok());
  knn::LinearScanKnn oracle(ds, param.metric);

  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> q(5);
    for (auto& v : q) v = rng.Uniform();
    uint64_t mask = rng.UniformInt(1, 31);
    double radius = rng.Uniform(0.05, 0.4);
    auto got = tree->RangeSearch(q, Subspace(mask), radius);
    auto want = oracle.RangeSearch(q, Subspace(mask), radius);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_NEAR(got[i].distance, want[i].distance, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MetricsAndBuilds, XTreeEquivalenceTest,
    ::testing::Values(EquivalenceParam{MetricKind::kL2, true},
                      EquivalenceParam{MetricKind::kL2, false},
                      EquivalenceParam{MetricKind::kL1, true},
                      EquivalenceParam{MetricKind::kL1, false},
                      EquivalenceParam{MetricKind::kLInf, true},
                      EquivalenceParam{MetricKind::kLInf, false}),
    [](const auto& info) {
      std::string name(knn::MetricKindToString(info.param.metric));
      name += info.param.bulk ? "_bulk" : "_insert";
      return name;
    });

TEST(XTreeKnnAdapterTest, ImplementsEngineInterface) {
  Rng rng(19);
  data::Dataset ds = data::GenerateUniform(200, 3, &rng);
  auto tree = XTree::BulkLoad(ds, MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  XTreeKnn engine(*tree);
  EXPECT_EQ(engine.size(), 200u);
  EXPECT_EQ(engine.metric(), MetricKind::kL2);
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
  tree->Knn(query);
  EXPECT_LT(tree->distance_computations(), 5000u / 2);
}

TEST(XTreeTest, DuplicatePointsHandled) {
  data::Dataset ds(2);
  for (int i = 0; i < 100; ++i) {
    ds.Append(std::vector<double>{1.0, 1.0});
  }
  auto tree = XTree::BuildByInsertion(ds, MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());
  std::vector<double> q{1.0, 1.0};
  KnnQuery query;
  query.point = q;
  query.subspace = Subspace::Full(2);
  query.k = 7;
  auto result = tree->Knn(query);
  ASSERT_EQ(result.size(), 7u);
  // Ties broken by ascending id, matching the oracle.
  for (size_t i = 0; i < result.size(); ++i) {
    EXPECT_EQ(result[i].id, i);
    EXPECT_DOUBLE_EQ(result[i].distance, 0.0);
  }
}

}  // namespace
}  // namespace hos::index
