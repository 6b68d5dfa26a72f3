// Per-backend streaming-ingest behaviour at the engine level. Engines are
// immutable snapshots, and a changed dataset gets a freshly built one:
//
//  * exactness past the snapshot: an engine whose dataset grew after it
//    was built answers Search/RangeSearch bit-identically to an engine
//    freshly built over the grown dataset;
//  * an in-place overwrite *before* the build is part of the snapshot, so
//    appends after it still merge exactly;
//  * an engine over a dataset with no appends has an empty delta;
//  * an in-place overwrite *after* the build breaks the engine's contract,
//    and debug builds assert at the next query.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/data/generator.h"
#include "src/index/xtree.h"
#include "src/kernels/dataset_view.h"
#include "src/knn/knn_engine.h"
#include "src/knn/linear_scan.h"

namespace hos::index {
namespace {

constexpr int kDims = 4;
constexpr size_t kBase = 90;
constexpr size_t kDelta = 30;

data::Dataset MakeDataset(size_t rows, uint64_t seed) {
  Rng rng(seed);
  return data::GenerateUniform(rows, kDims, &rng);
}

void AppendDelta(data::Dataset* dataset, uint64_t seed) {
  Rng rng(seed);
  data::Dataset extra = data::GenerateUniform(kDelta, kDims, &rng);
  for (data::PointId i = 0; i < extra.size(); ++i) {
    dataset->Append(extra.Row(i));
  }
}

void ExpectSameNeighbors(const std::vector<knn::Neighbor>& got,
                         const std::vector<knn::Neighbor>& want,
                         const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;
  }
}

/// Runs the grown-dataset equivalence protocol for one engine pair.
template <typename QueryFn, typename RangeFn>
void ExpectEquivalentOnProbes(const data::Dataset& dataset, QueryFn&& knn,
                              RangeFn&& range, const std::string& label) {
  const std::vector<data::PointId> probes = {
      0, 11, static_cast<data::PointId>(kBase - 1),
      static_cast<data::PointId>(kBase),  // first delta row
      static_cast<data::PointId>(dataset.size() - 1)};
  for (data::PointId id : probes) {
    for (int k : {1, 3, 7}) {
      knn(id, k, label + ", id " + std::to_string(id) +
                     ", k " + std::to_string(k));
    }
    range(id, 0.35, label + ", range, id " + std::to_string(id));
  }
}

/// The probe protocol through the KnnEngine interface: Search in
/// `knn_subspace`, RangeSearch in the full space.
void ExpectSameAnswers(const data::Dataset& dataset,
                       const knn::KnnEngine& engine,
                       const knn::KnnEngine& fresh,
                       const Subspace& knn_subspace,
                       const std::string& label) {
  ExpectEquivalentOnProbes(
      dataset,
      [&](data::PointId id, int k, const std::string& trace) {
        knn::KnnQuery query;
        query.point = dataset.Row(id);
        query.subspace = knn_subspace;
        query.k = k;
        query.exclude = id;
        ExpectSameNeighbors(engine.Search(query), fresh.Search(query), trace);
      },
      [&](data::PointId id, double radius, const std::string& trace) {
        const Subspace s = Subspace::Full(kDims);
        ExpectSameNeighbors(engine.RangeSearch(dataset.Row(id), s, radius),
                            fresh.RangeSearch(dataset.Row(id), s, radius),
                            trace);
      },
      label);
}

TEST(DeltaRebuildTest, XTreeServesDeltaExactly) {
  data::Dataset grown = MakeDataset(kBase, 3);
  auto tree = XTree::BulkLoad(grown, knn::MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  AppendDelta(&grown, 4);

  auto fresh = XTree::BulkLoad(grown, knn::MetricKind::kL2);
  ASSERT_TRUE(fresh.ok());

  EXPECT_EQ(tree->base_rows(), kBase);
  EXPECT_EQ(fresh->base_rows(), grown.size());

  ExpectEquivalentOnProbes(
      grown,
      [&](data::PointId id, int k, const std::string& trace) {
        knn::KnnQuery query;
        query.point = grown.Row(id);
        query.subspace = Subspace::FromOneBased({1, 3});
        query.k = k;
        query.exclude = id;
        ExpectSameNeighbors(tree->Search(query), fresh->Search(query), trace);
        query.subspace = Subspace::Full(kDims);
        ExpectSameNeighbors(tree->Search(query), fresh->Search(query),
                            trace + " (full space)");
      },
      [&](data::PointId id, double radius, const std::string& trace) {
        const Subspace s = Subspace::FromOneBased({2, 4});
        ExpectSameNeighbors(tree->RangeSearch(grown.Row(id), s, radius),
                            fresh->RangeSearch(grown.Row(id), s, radius),
                            trace);
      },
      "delta scan");
  EXPECT_GT(tree->backend_stats().delta_merges, 0u);
  EXPECT_EQ(fresh->backend_stats().delta_merges, 0u);
}

TEST(DeltaRebuildTest, LinearScanServesDeltaExactly) {
  data::Dataset grown = MakeDataset(kBase, 7);
  knn::LinearScanKnn engine(grown, knn::MetricKind::kL2);
  AppendDelta(&grown, 8);
  knn::LinearScanKnn fresh(grown, knn::MetricKind::kL2);

  ExpectSameAnswers(grown, engine, fresh, Subspace::FromOneBased({2, 3}),
                    "delta scan");
  EXPECT_GT(engine.backend_stats().delta_merges, 0u);
  EXPECT_EQ(fresh.backend_stats().delta_merges, 0u);
}

// A row overwritten before an engine is built is part of its snapshot, so
// rows appended afterwards merge exactly and the engine answers like one
// built over the final dataset (no overwrite happened after the build, so
// the contract assert stays quiet).
TEST(DeltaRebuildTest, OverwriteBeforeBuildThenAppendsAnswersLikeFresh) {
  data::Dataset grown = MakeDataset(kBase, 9);
  grown.Set(10, 2, 0.123456);
  grown.Set(0, 0, 0.987654);
  // A snapshot records the version it was taken at, overwrites included.
  EXPECT_EQ(kernels::DatasetView::Build(grown).snapshot_version(),
            grown.version());
  knn::LinearScanKnn scan(grown, knn::MetricKind::kL2);
  auto tree = XTree::BulkLoad(grown, knn::MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  AppendDelta(&grown, 10);

  knn::LinearScanKnn fresh_scan(grown, knn::MetricKind::kL2);
  auto fresh_tree = XTree::BulkLoad(grown, knn::MetricKind::kL2);
  ASSERT_TRUE(fresh_tree.ok());
  const Subspace s = Subspace::FromOneBased({1, 3});
  ExpectSameAnswers(grown, scan, fresh_scan, s, "linear scan");
  ExpectSameAnswers(grown, *tree, *fresh_tree, s, "xtree");
}

TEST(DeltaRebuildTest, NoAppendsMeansAnEmptyDelta) {
  const data::Dataset dataset = MakeDataset(kBase, 13);
  knn::LinearScanKnn scan(dataset, knn::MetricKind::kL2);
  auto tree = XTree::BulkLoad(dataset, knn::MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->base_rows(), dataset.size());

  for (const knn::KnnEngine* engine :
       {static_cast<const knn::KnnEngine*>(&scan),
        static_cast<const knn::KnnEngine*>(&*tree)}) {
    knn::KnnQuery query;
    query.point = dataset.Row(3);
    query.subspace = Subspace::Full(kDims);
    query.k = 4;
    (void)engine->Search(query);
    (void)engine->RangeSearch(dataset.Row(3), Subspace::Full(kDims), 0.5);
    const knn::KnnBackendStats stats = engine->backend_stats();
    SCOPED_TRACE(stats.backend);
    EXPECT_EQ(stats.kernel_scans, 2u);
    EXPECT_EQ(stats.delta_merges, 0u);
  }
}

// Overwriting a snapshotted row in place after the build breaks the
// engine's contract: debug builds abort at the next query, and release
// builds simply run it.
knn::KnnQuery ProbeQuery(const data::Dataset& dataset) {
  knn::KnnQuery query;
  query.point = dataset.Row(0);
  query.subspace = Subspace::Full(kDims);
  query.k = 5;
  query.exclude = data::PointId{0};
  return query;
}

TEST(DeltaRebuildDeathTest, OverwriteAfterBuildTripsTheLinearScanAssert) {
  data::Dataset dataset = MakeDataset(kBase, 9);
  knn::LinearScanKnn engine(dataset, knn::MetricKind::kL2);
  dataset.Set(10, 2, 0.123456);
  EXPECT_DEBUG_DEATH((void)engine.Search(ProbeQuery(dataset)),
                     "last_overwrite_version");
}

TEST(DeltaRebuildDeathTest, OverwriteAfterBuildTripsTheXTreeAssert) {
  data::Dataset dataset = MakeDataset(kBase, 9);
  auto tree = XTree::BulkLoad(dataset, knn::MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  dataset.Set(10, 2, 0.123456);
  EXPECT_DEBUG_DEATH((void)tree->Search(ProbeQuery(dataset)),
                     "last_overwrite_version");
}

}  // namespace
}  // namespace hos::index
