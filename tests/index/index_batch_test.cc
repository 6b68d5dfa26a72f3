// Backend differential suite for the batched kNN entry point: on both leaf
// layouts — the linear scan's one leaf and the X-tree's STR leaves —
// SearchBatch must return, for every query point, exactly the neighbour
// list (same ids, same distance doubles, same order) its per-point Search
// call returns, and OutlyingDegreeBatch must reproduce per-point
// OutlyingDegree bitwise.
// Covered across batch sizes, ks, self-exclusions, appended delta rows and
// tombstones.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "src/index/xtree.h"
#include "src/knn/knn_engine.h"
#include "src/knn/linear_scan.h"

namespace hos::index {
namespace {

using knn::BatchPointQuery;
using knn::KnnQuery;
using knn::MetricKind;
using knn::Neighbor;

Subspace RandomSubspace(int d, Rng* rng) {
  uint64_t mask = 0;
  for (int dim = 0; dim < d; ++dim) {
    if (rng->UniformInt(0, 1) == 1) mask |= uint64_t{1} << dim;
  }
  if (mask == 0) mask = (uint64_t{1} << d) - 1;
  return Subspace(mask);
}

std::vector<BatchPointQuery> MakeBatch(const data::Dataset& ds, size_t batch,
                                       Rng* rng) {
  std::vector<BatchPointQuery> queries(batch);
  for (size_t b = 0; b < batch; ++b) {
    data::PointId id;
    do {
      id = static_cast<data::PointId>(rng->UniformInt(0, ds.size() - 1));
    } while (!ds.IsLive(id));
    queries[b].point = ds.Row(id);
    queries[b].exclude = id;
  }
  return queries;
}

/// Exercises one engine: SearchBatch against per-point Search, and the OD
/// batch wrapper against per-point OutlyingDegree, bitwise.
void ExpectEngineBatchMatches(const knn::KnnEngine& engine,
                              const data::Dataset& ds, uint64_t seed) {
  Rng rng(seed);
  const int d = ds.num_dims();
  for (size_t batch : {1u, 4u, 8u, 11u}) {
    const Subspace subspace = RandomSubspace(d, &rng);
    const int k = 1 + static_cast<int>(rng.UniformInt(0, 6));
    SCOPED_TRACE("batch=" + std::to_string(batch) + " k=" + std::to_string(k) +
                 " mask=" + std::to_string(subspace.mask()));
    const std::vector<BatchPointQuery> queries = MakeBatch(ds, batch, &rng);

    const auto results = engine.SearchBatch(queries, subspace, k);
    ASSERT_EQ(results.size(), batch);
    const std::vector<double> ods =
        knn::OutlyingDegreeBatch(engine, queries, subspace, k);
    ASSERT_EQ(ods.size(), batch);

    for (size_t b = 0; b < batch; ++b) {
      KnnQuery query;
      query.point = queries[b].point;
      query.subspace = subspace;
      query.k = k;
      query.exclude = queries[b].exclude;
      EXPECT_EQ(results[b], engine.Search(query)) << "query " << b;
      EXPECT_EQ(ods[b], knn::OutlyingDegree(engine, query)) << "query " << b;
    }
  }
}

data::Dataset MakeData(uint64_t seed, size_t n, int d) {
  Rng rng(seed);
  data::GaussianMixtureSpec spec;
  spec.num_points = n;
  spec.num_dims = d;
  return data::GenerateGaussianMixture(spec, &rng);
}

TEST(IndexBatchTest, LinearScanBatchMatchesPerPoint) {
  data::Dataset ds = MakeData(41, 400, 7);
  for (MetricKind metric :
       {MetricKind::kL2, MetricKind::kL1, MetricKind::kLInf}) {
    knn::LinearScanKnn engine(ds, metric);
    ExpectEngineBatchMatches(engine, ds, 100 + static_cast<int>(metric));
  }
}

TEST(IndexBatchTest, XTreeBatchMatchesPerPoint) {
  data::Dataset ds = MakeData(42, 500, 6);
  auto tree = XTree::BulkLoad(ds, MetricKind::kL2);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ExpectEngineBatchMatches(*tree, ds, 200);
}

// Delta rows (appended after the structures were built) and tombstones
// must flow through the batch paths exactly as through the per-point ones:
// the structures serve their sealed base, the delta is merged by scan, and
// dead rows are filtered at admission. d = 32 runs the leaf-ordered X-tree
// at the highd workload's width.
TEST(IndexBatchTest, BatchMatchesPerPointWithDeltaAndTombstones) {
  for (int d : {6, 32}) {
    SCOPED_TRACE("d=" + std::to_string(d));
    data::Dataset ds = MakeData(46, 400, d);
    auto tree = XTree::BulkLoad(ds, MetricKind::kL2);
    ASSERT_TRUE(tree.ok());

    // Mutate after build: 60 appended rows and a handful of tombstones
    // (including base and delta rows).
    Rng mrng(47);
    for (int i = 0; i < 60; ++i) {
      std::vector<double> row;
      for (int dim = 0; dim < d; ++dim) row.push_back(mrng.Uniform());
      ds.Append(row);
    }
    const std::vector<data::PointId> dead = {5, 77, 401, 433};
    ASSERT_TRUE(ds.DeleteRows(dead).ok());

    knn::LinearScanKnn linear_engine(ds, MetricKind::kL2);
    ExpectEngineBatchMatches(linear_engine, ds, 500);
    ExpectEngineBatchMatches(*tree, ds, 501);
  }
}

}  // namespace
}  // namespace hos::index
