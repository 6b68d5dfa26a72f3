// Backend differential suite for the batched kNN entry points: for every
// backend — LinearScanKnn's fused scan, VaFile's single-sweep batched
// filter+refine, XTreeKnn's per-point loop, and IDistance's
// shared-frontier stripe expansion — KnnBatch/SearchBatch must return, for
// every query point, exactly the neighbour list (same ids, same distance
// doubles, same order) its per-point Knn/Search call returns, and
// OutlyingDegreeBatch must reproduce per-point OutlyingDegree bitwise.
// Covered across batch sizes straddling the kernel's query block, ks,
// self-exclusions, appended delta rows and tombstones.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "src/index/idistance.h"
#include "src/index/va_file.h"
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
                                       Rng* rng,
                                       std::vector<data::PointId>* ids) {
  ids->clear();
  std::vector<BatchPointQuery> queries(batch);
  for (size_t b = 0; b < batch; ++b) {
    data::PointId id;
    do {
      id = static_cast<data::PointId>(rng->UniformInt(0, ds.size() - 1));
    } while (!ds.IsLive(id));
    ids->push_back(id);
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
    std::vector<data::PointId> ids;
    const std::vector<BatchPointQuery> queries =
        MakeBatch(ds, batch, &rng, &ids);

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
  auto tree = XTree::BulkLoad(ds, MetricKind::kL2, {});
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  XTreeKnn engine(*tree);
  ExpectEngineBatchMatches(engine, ds, 200);
}

TEST(IndexBatchTest, VaFileBatchMatchesPerPoint) {
  data::Dataset ds = MakeData(43, 500, 6);
  auto file = VaFile::Build(ds, MetricKind::kL2, {});
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  VaFileKnn engine(*file);
  ExpectEngineBatchMatches(engine, ds, 300);
}

TEST(IndexBatchTest, IDistanceBatchMatchesPerPoint) {
  data::Dataset ds = MakeData(44, 600, 8);
  Rng rng(44);
  auto idx = IDistance::Build(ds, MetricKind::kL2, {}, &rng);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();

  Rng qrng(45);
  for (size_t batch : {1u, 4u, 9u, 16u}) {
    const int k = 1 + static_cast<int>(qrng.UniformInt(0, 7));
    SCOPED_TRACE("batch=" + std::to_string(batch) + " k=" + std::to_string(k));
    std::vector<data::PointId> ids;
    const std::vector<BatchPointQuery> queries =
        MakeBatch(ds, batch, &qrng, &ids);
    const auto results = idx->KnnBatch(queries, k);
    ASSERT_EQ(results.size(), batch);
    for (size_t b = 0; b < batch; ++b) {
      EXPECT_EQ(results[b], idx->Knn(queries[b].point, k, ids[b]))
          << "query " << b;
    }
  }
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
    auto tree = XTree::BulkLoad(ds, MetricKind::kL2, {});
    ASSERT_TRUE(tree.ok());
    auto file = VaFile::Build(ds, MetricKind::kL2, {});
    ASSERT_TRUE(file.ok());
    Rng irng(46);
    auto idist = IDistance::Build(ds, MetricKind::kL2, {}, &irng);
    ASSERT_TRUE(idist.ok());

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

    XTreeKnn xtree_engine(*tree);
    VaFileKnn vafile_engine(*file);
    knn::LinearScanKnn linear_engine(ds, MetricKind::kL2);
    ExpectEngineBatchMatches(linear_engine, ds, 500);
    ExpectEngineBatchMatches(xtree_engine, ds, 501);
    ExpectEngineBatchMatches(vafile_engine, ds, 502);

    Rng qrng(48);
    std::vector<data::PointId> ids;
    const std::vector<BatchPointQuery> queries =
        MakeBatch(ds, 10, &qrng, &ids);
    const auto results = idist->KnnBatch(queries, 5);
    for (size_t b = 0; b < queries.size(); ++b) {
      EXPECT_EQ(results[b], idist->Knn(queries[b].point, 5, ids[b]))
          << "query " << b;
    }
  }
}

}  // namespace
}  // namespace hos::index
