#include "src/knn/linear_scan.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "tests/testutil/knn_oracle.h"

namespace hos::knn {
namespace {

data::Dataset Grid1D() {
  data::Dataset ds(1);
  for (int i = 0; i < 10; ++i) {
    ds.Append(std::vector<double>{static_cast<double>(i)});
  }
  return ds;
}

TEST(LinearScanTest, FindsNearestInOrder) {
  data::Dataset ds = Grid1D();
  LinearScanKnn engine(ds, MetricKind::kL2);
  std::vector<double> q{3.2};
  KnnQuery query;
  query.point = q;
  query.subspace = Subspace::Full(1);
  query.k = 3;
  auto result = engine.Search(query);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].id, 3u);
  EXPECT_EQ(result[1].id, 4u);
  EXPECT_EQ(result[2].id, 2u);
  EXPECT_NEAR(result[0].distance, 0.2, 1e-12);
  // Ascending distances.
  EXPECT_LE(result[0].distance, result[1].distance);
  EXPECT_LE(result[1].distance, result[2].distance);
}

TEST(LinearScanTest, ExcludeRemovesSelf) {
  data::Dataset ds = Grid1D();
  LinearScanKnn engine(ds, MetricKind::kL2);
  auto row = ds.Row(5);
  KnnQuery query;
  query.point = row;
  query.subspace = Subspace::Full(1);
  query.k = 2;
  query.exclude = data::PointId{5};
  auto result = engine.Search(query);
  ASSERT_EQ(result.size(), 2u);
  for (const auto& n : result) EXPECT_NE(n.id, 5u);
  // Ties at distance 1 (ids 4 and 6) break by id.
  EXPECT_EQ(result[0].id, 4u);
  EXPECT_EQ(result[1].id, 6u);
}

TEST(LinearScanTest, KLargerThanDataset) {
  data::Dataset ds = Grid1D();
  LinearScanKnn engine(ds, MetricKind::kL2);
  std::vector<double> q{0.0};
  KnnQuery query;
  query.point = q;
  query.subspace = Subspace::Full(1);
  query.k = 100;
  EXPECT_EQ(engine.Search(query).size(), 10u);
}

TEST(LinearScanTest, KZeroReturnsEmpty) {
  data::Dataset ds = Grid1D();
  LinearScanKnn engine(ds, MetricKind::kL2);
  std::vector<double> q{0.0};
  KnnQuery query;
  query.point = q;
  query.subspace = Subspace::Full(1);
  query.k = 0;
  EXPECT_TRUE(engine.Search(query).empty());
}

TEST(LinearScanTest, SubspaceChangesNeighbors) {
  data::Dataset ds(2);
  ds.Append(std::vector<double>{0.0, 100.0});  // far in dim 2
  ds.Append(std::vector<double>{50.0, 0.1});   // far in dim 1
  LinearScanKnn engine(ds, MetricKind::kL2);
  std::vector<double> q{0.0, 0.0};
  KnnQuery query;
  query.point = q;
  query.k = 1;
  query.subspace = Subspace::FromDims({0});
  EXPECT_EQ(engine.Search(query)[0].id, 0u);
  query.subspace = Subspace::FromDims({1});
  EXPECT_EQ(engine.Search(query)[0].id, 1u);
}

TEST(LinearScanTest, RangeSearchInclusive) {
  data::Dataset ds = Grid1D();
  LinearScanKnn engine(ds, MetricKind::kL2);
  std::vector<double> q{5.0};
  auto result = engine.RangeSearch(q, Subspace::Full(1), 2.0);
  // ids 3..7 are within distance 2 inclusive.
  ASSERT_EQ(result.size(), 5u);
  EXPECT_EQ(result[0].id, 5u);  // distance 0 first
  for (const auto& n : result) {
    EXPECT_LE(n.distance, 2.0);
  }
}

TEST(LinearScanTest, CountsDistanceComputations) {
  data::Dataset ds = Grid1D();
  LinearScanKnn engine(ds, MetricKind::kL2);
  std::vector<double> q{0.0};
  KnnQuery query;
  query.point = q;
  query.subspace = Subspace::Full(1);
  query.k = 1;
  EXPECT_EQ(engine.distance_computations(), 0u);
  engine.Search(query);
  EXPECT_EQ(engine.distance_computations(), 10u);
}

// Rows tombstoned before the build sit, zeroed, inside the scan's one
// leaf; the collector rejects them at admission, so they neither answer
// nor tighten the bound, through Search and SearchBatch alike.
TEST(LinearScanTest, RowsDeadAtBuildNeverAnswer) {
  Rng rng(7003);
  const int d = 5;
  data::Dataset ds = data::GenerateUniform(150, d, &rng);
  const std::vector<data::PointId> dead = {3, 17, 42, 99, 140};
  ASSERT_TRUE(ds.DeleteRows(dead).ok());
  LinearScanKnn engine(ds, MetricKind::kL2);
  const Subspace full = Subspace::Full(d);

  std::vector<BatchPointQuery> batch;
  for (data::PointId id = 0; id < 18; id += 2) {
    batch.push_back({ds.Row(id), id});
  }
  const auto answers = engine.SearchBatch(batch, full, 4);
  ASSERT_EQ(answers.size(), batch.size());
  for (size_t b = 0; b < batch.size(); ++b) {
    const std::vector<Neighbor> want =
        testutil::OracleKnn(ds, batch[b].point, full, MetricKind::kL2,
                            batch[b].exclude, 4);
    EXPECT_EQ(answers[b], want) << "query " << b;
    EXPECT_EQ(engine.Search({batch[b].point, full, 4, batch[b].exclude}),
              want)
        << "query " << b;
    for (const Neighbor& neighbor : answers[b]) {
      EXPECT_TRUE(ds.IsLive(neighbor.id));
    }
  }
}

TEST(OutlyingDegreeTest, SumsKnnDistances) {
  data::Dataset ds = Grid1D();
  LinearScanKnn engine(ds, MetricKind::kL2);
  auto row = ds.Row(0);
  KnnQuery query;
  query.point = row;
  query.subspace = Subspace::Full(1);
  query.k = 3;
  query.exclude = data::PointId{0};
  // Neighbours of 0 (excluding itself): 1, 2, 3 → OD = 1 + 2 + 3 = 6.
  EXPECT_DOUBLE_EQ(OutlyingDegree(engine, query), 6.0);
}

// OD monotonicity (paper §2) holds at the OD level too, because the k-th
// order statistic of coordinatewise-monotone distances is monotone.
TEST(OutlyingDegreeTest, MonotoneInSubspaceInclusion) {
  Rng rng(13);
  data::Dataset ds = data::GenerateUniform(200, 6, &rng);
  LinearScanKnn engine(ds, MetricKind::kL2);
  for (int trial = 0; trial < 50; ++trial) {
    data::PointId id =
        static_cast<data::PointId>(rng.UniformInt(0, ds.size() - 1));
    uint64_t sub = rng.UniformInt(1, (1 << 6) - 1);
    uint64_t super = sub | static_cast<uint64_t>(rng.UniformInt(0, 63));
    auto row = ds.Row(id);
    KnnQuery q;
    q.point = row;
    q.k = 4;
    q.exclude = id;
    q.subspace = Subspace(sub);
    double od_sub = OutlyingDegree(engine, q);
    q.subspace = Subspace(super);
    double od_super = OutlyingDegree(engine, q);
    EXPECT_GE(od_super + 1e-12, od_sub);
  }
}

}  // namespace
}  // namespace hos::knn
