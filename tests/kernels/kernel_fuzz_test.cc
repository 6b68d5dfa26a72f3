// Degenerate-input fuzzing for the batched distance kernel, in the style of
// xtree_fuzz_test / lattice_fuzz_test: seeded RNG sweeps over duplicate
// points, zero-variance dimensions, candidate blocks smaller than the
// kernel's unroll width and its 16-candidate register tiles, k >= n and
// empty subspaces, always checked against the scalar knn::SubspaceDistance
// oracle. Dimensions reach 40 and subspaces the full space, so the early
// exit between 8-dimension chunks runs at every chunk boundary up to 32.
// The top-k sweep runs the kNN engine over three leaf layouts: the linear
// scan's one leaf, the X-tree's STR leaves and a random partition into
// leaves of 1..8 rows. With duplicates or the empty subspace many leaves
// sit exactly at the k-th distance, where only a strict leaf skip keeps
// the smaller-id ties.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/index/xtree.h"
#include "src/kernels/batched_distance.h"
#include "src/knn/linear_scan.h"
#include "src/knn/metric.h"
#include "tests/testutil/knn_oracle.h"

namespace hos::kernels {
namespace {

using knn::KnnQuery;
using knn::MetricKind;
using knn::Neighbor;

constexpr MetricKind kMetrics[] = {MetricKind::kL1, MetricKind::kL2,
                                   MetricKind::kLInf};

/// Dimensionalities drawn: up to 40, so subspaces span five 8-dimension
/// chunks.
constexpr int kMaxFuzzDims = 40;

/// A non-empty subspace of d dimensions: sometimes the full space,
/// otherwise each dimension kept with a per-draw probability, so sizes
/// spread over 1..d rather than bunching at d / 2.
Subspace RandomSubspace(int d, Rng* rng) {
  if (rng->Bernoulli(0.2)) return Subspace::Full(d);
  const double keep = rng->Uniform();
  uint64_t mask = 0;
  for (int dim = 0; dim < d; ++dim) {
    if (rng->Bernoulli(keep)) mask |= uint64_t{1} << dim;
  }
  if (mask == 0) mask = uint64_t{1} << rng->UniformInt(0, d - 1);
  return Subspace(mask);
}

using testutil::OracleKnn;
using testutil::OracleRange;

/// Bitwise (id, distance) sequence equality.
void ExpectExact(const std::vector<Neighbor>& got,
                 const std::vector<Neighbor>& want, const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].id, want[i].id) << context << " rank " << i;
    ASSERT_EQ(got[i].distance, want[i].distance) << context << " rank " << i;
  }
}

// The distance kernel through the range scan: with an infinite radius
// every row comes back with its exact distance; with a finite one
// (sometimes zero, sometimes exactly a row's distance) exactly the rows
// within it do, although the early exit abandons blocks beyond it. Random
// leaves of 1..8 rows make kernel ranges start mid-column and end in
// every tile tail.
TEST(KernelFuzzTest, TinyBlocksAndDuplicatesMatchOracle) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    // Deliberately spans sizes below, at, and above the unroll width, so
    // blocks end in every tile tail.
    const size_t n = 1 + static_cast<size_t>(rng.UniformInt(
                             0, static_cast<int64_t>(3 * kDistanceBlock) - 1));
    const int d = 1 + static_cast<int>(rng.UniformInt(0, kMaxFuzzDims - 1));
    data::Dataset ds = testutil::MakeDuplicateHeavy(n, d, &rng);
    const MetricKind metric = kMetrics[seed % 3];
    const knn::LinearScanKnn scan(ds, metric);
    const knn::LeafTableKnn irregular =
        testutil::RandomLeafEngine(ds, metric, 8, &rng);

    std::vector<double> q(d);
    for (auto& v : q) v = rng.Bernoulli(0.3) ? 0.25 : rng.Uniform(-1.0, 2.0);
    const Subspace subspace =
        rng.Bernoulli(0.15)
            ? Subspace()  // empty: every distance is exactly 0
            : RandomSubspace(d, &rng);
    const std::vector<Neighbor> all = OracleRange(ds, q, subspace, metric, kInf);
    const double bound =
        rng.Bernoulli(0.3)
            ? 0.0
            : all[rng.UniformInt(0, static_cast<int64_t>(n) - 1)].distance;
    const std::vector<Neighbor> within =
        OracleRange(ds, q, subspace, metric, bound);

    for (const knn::LeafTableKnn* engine :
         {static_cast<const knn::LeafTableKnn*>(&scan), &irregular}) {
      const std::string label =
          engine->backend_stats().backend + " seed " + std::to_string(seed);
      ExpectExact(engine->RangeSearch(q, subspace, kInf), all, label);
      ExpectExact(engine->RangeSearch(q, subspace, bound), within,
                  label + " bounded");
    }
  }
}

TEST(KernelFuzzTest, TopKScansMatchOracleOnDegenerateData) {
  for (uint64_t seed = 100; seed < 140; ++seed) {
    Rng rng(seed);
    const size_t n = 1 + static_cast<size_t>(rng.UniformInt(
                             0, static_cast<int64_t>(3 * kDistanceBlock) - 1));
    const int d = 1 + static_cast<int>(rng.UniformInt(0, kMaxFuzzDims - 1));
    data::Dataset ds = testutil::MakeDuplicateHeavy(n, d, &rng);
    const MetricKind metric = kMetrics[seed % 3];
    // Tombstones, sometimes: rows dead at build lie past every leaf, rows
    // deleted since stay in theirs and are rejected at admission.
    auto delete_some = [&] {
      if (!rng.Bernoulli(0.3)) return;
      std::vector<data::PointId> dead;
      for (data::PointId id = 0; id < n; ++id) {
        if (ds.IsLive(id) && rng.Bernoulli(0.15)) dead.push_back(id);
      }
      ASSERT_TRUE(ds.DeleteRows(dead).ok());
    };
    delete_some();
    const knn::LinearScanKnn scan(ds, metric);
    auto tree = index::XTree::BulkLoad(ds, metric);
    ASSERT_TRUE(tree.ok());
    ASSERT_TRUE(tree->CheckInvariants().ok()) << "seed " << seed;
    const knn::LeafTableKnn irregular =
        testutil::RandomLeafEngine(ds, metric, 8, &rng);
    delete_some();
    const std::pair<const knn::KnnEngine*, const char*> engines[] = {
        {&scan, "scan"}, {&*tree, "xtree"}, {&irregular, "random leaves"}};

    for (int trial = 0; trial < 6; ++trial) {
      KnnQuery query;
      std::vector<double> q(d);
      for (auto& v : q) v = rng.Uniform(-0.5, 1.5);
      if (rng.Bernoulli(0.5)) {
        // Query a dataset row (often a duplicate of other rows).
        const auto row = static_cast<data::PointId>(
            rng.UniformInt(0, static_cast<int64_t>(n) - 1));
        q = ds.RowCopy(row);
        query.exclude = row;
      }
      query.point = q;
      query.subspace = trial == 0 ? Subspace() : RandomSubspace(d, &rng);
      // k spans 0, < n, == n and > n.
      query.k = static_cast<int>(rng.UniformInt(0, static_cast<int64_t>(n) + 2));
      const std::vector<Neighbor> want =
          OracleKnn(ds, q, query.subspace, metric, query.exclude, query.k);

      // A batch of 1..9 points, mixing self-excluded rows and external
      // points, each answered exactly as the oracle answers it alone.
      const size_t batch = 1 + static_cast<size_t>(rng.UniformInt(0, 8));
      std::vector<std::vector<double>> batch_points(batch);
      std::vector<knn::BatchPointQuery> points(batch);
      for (size_t b = 0; b < batch; ++b) {
        if (rng.Bernoulli(0.5)) {
          const auto row = static_cast<data::PointId>(
              rng.UniformInt(0, static_cast<int64_t>(n) - 1));
          batch_points[b] = ds.RowCopy(row);
          points[b].exclude = row;
        } else {
          batch_points[b].resize(d);
          for (auto& v : batch_points[b]) v = rng.Uniform(-0.5, 1.5);
        }
        points[b].point = batch_points[b];
      }
      const double radius = rng.Uniform(0.0, 1.5);
      const std::vector<Neighbor> want_range =
          OracleRange(ds, q, query.subspace, metric, radius);

      for (const auto& [engine, name] : engines) {
        const std::string label = std::string(name) + " seed " +
                                  std::to_string(seed) + " trial " +
                                  std::to_string(trial);
        ExpectExact(engine->Search(query), want, label);
        const auto batch_got =
            engine->SearchBatch(points, query.subspace, query.k);
        ASSERT_EQ(batch_got.size(), batch) << label;
        for (size_t b = 0; b < batch; ++b) {
          ExpectExact(batch_got[b],
                      OracleKnn(ds, batch_points[b], query.subspace, metric,
                                points[b].exclude, query.k),
                      label + " point " + std::to_string(b));
        }
        ExpectExact(engine->RangeSearch(q, query.subspace, radius),
                    want_range, label + " range");
      }
    }
  }
}

}  // namespace
}  // namespace hos::kernels
