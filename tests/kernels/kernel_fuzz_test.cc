// Degenerate-input fuzzing for the batched distance kernel, in the style of
// xtree_fuzz_test / lattice_fuzz_test: seeded RNG sweeps over duplicate
// points, zero-variance dimensions, candidate blocks smaller than the
// kernel's unroll width and its 16-candidate register tiles, k >= n and
// empty subspaces, always checked against the scalar knn::SubspaceDistance
// oracle. Dimensions reach 40 and subspaces the full space, so the early
// exit between 8-dimension chunks runs at every chunk boundary up to 32.
// The top-k sweep runs both kNN backends and the linear scan's fused
// multi-point batch: with duplicates or the empty subspace every X-tree
// leaf can sit exactly at the k-th distance, where only a strict leaf skip
// keeps the smaller-id ties.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/index/xtree.h"
#include "src/kernels/batched_distance.h"
#include "src/kernels/dataset_view.h"
#include "src/knn/linear_scan.h"
#include "src/knn/metric.h"

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

/// The scalar oracle's k nearest neighbours of q, (distance, id) ordered.
std::vector<Neighbor> OracleKnn(const data::Dataset& ds,
                                std::span<const double> q,
                                const Subspace& subspace, MetricKind metric,
                                std::optional<data::PointId> exclude,
                                int k) {
  std::vector<Neighbor> want;
  for (data::PointId id = 0; id < ds.size(); ++id) {
    if (exclude && *exclude == id) continue;
    want.push_back({id, knn::SubspaceDistance(q, ds.Row(id), subspace,
                                              metric)});
  }
  std::sort(want.begin(), want.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
  if (want.size() > static_cast<size_t>(std::max(k, 0))) {
    want.resize(static_cast<size_t>(std::max(k, 0)));
  }
  return want;
}

/// Degenerate dataset: clusters of exact duplicates, zero-variance
/// dimensions, and a few isolated points.
data::Dataset MakeDegenerate(size_t n, int d, Rng* rng) {
  data::Dataset ds(d);
  std::vector<double> row(d);
  const int zero_variance_dim = static_cast<int>(rng->UniformInt(0, d - 1));
  while (ds.size() < n) {
    for (int dim = 0; dim < d; ++dim) {
      row[dim] = dim == zero_variance_dim ? 0.25 : rng->Uniform();
    }
    // Each drawn row is appended 1..4 times: exact duplicates are common.
    const int copies = 1 + static_cast<int>(rng->UniformInt(0, 3));
    for (int c = 0; c < copies && ds.size() < n; ++c) {
      ds.Append(row);
    }
  }
  return ds;
}

TEST(KernelFuzzTest, TinyBlocksAndDuplicatesMatchOracle) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    // Deliberately spans sizes below, at, and above the unroll width, so
    // blocks end in every tile tail.
    const size_t n = 1 + static_cast<size_t>(rng.UniformInt(
                             0, static_cast<int64_t>(3 * kDistanceBlock) - 1));
    const int d = 1 + static_cast<int>(rng.UniformInt(0, kMaxFuzzDims - 1));
    data::Dataset ds = MakeDegenerate(n, d, &rng);
    DatasetView view = DatasetView::Build(ds);
    const MetricKind metric = kMetrics[seed % 3];

    std::vector<double> q(d);
    for (auto& v : q) v = rng.Bernoulli(0.3) ? 0.25 : rng.Uniform(-1.0, 2.0);
    const Subspace subspace =
        rng.Bernoulli(0.15)
            ? Subspace()  // empty: every distance is exactly 0
            : RandomSubspace(d, &rng);

    // Oracle distances.
    std::vector<double> want(n);
    for (data::PointId id = 0; id < n; ++id) {
      want[id] = knn::SubspaceDistance(q, ds.Row(id), subspace, metric);
    }

    // Range form over the whole set.
    std::vector<double> got(n);
    BatchedSubspaceDistanceRange(view, q, subspace, metric, 0, n,
                                 kPrunedDistance, got);
    for (data::PointId id = 0; id < n; ++id) {
      ASSERT_EQ(got[id], want[id]) << "seed " << seed << " id " << id;
    }

    // Sub-ranges starting mid-column (non-zero first where n allows) and
    // shorter than the unroll width, so every block is a sub-block tail.
    for (int window = 0; window < 4; ++window) {
      const size_t first =
          n > 1 ? static_cast<size_t>(
                      rng.UniformInt(1, static_cast<int64_t>(n) - 1))
                : 0;
      const size_t max_count = std::min(n - first, kDistanceBlock - 1);
      const size_t count = static_cast<size_t>(
          rng.UniformInt(1, static_cast<int64_t>(max_count)));
      std::vector<double> sub(count);
      BatchedSubspaceDistanceRange(view, q, subspace, metric,
                                   static_cast<data::PointId>(first), count,
                                   kPrunedDistance, sub);
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(sub[i], want[first + i])
            << "seed " << seed << " position " << first + i;
      }
    }

    // Bounded form with a random (sometimes zero) bound: a pruned candidate
    // must really be beyond the bound, a surviving one exact.
    const double bound = rng.Bernoulli(0.3)
                             ? 0.0
                             : want[rng.UniformInt(0, static_cast<int64_t>(
                                                          n) - 1)];
    std::vector<double> bounded(n);
    BatchedSubspaceDistanceRange(view, q, subspace, metric, 0, n, bound,
                                 bounded);
    for (data::PointId id = 0; id < n; ++id) {
      if (bounded[id] == kPrunedDistance) {
        ASSERT_GT(want[id], bound) << "seed " << seed << " id " << id;
      } else {
        ASSERT_EQ(bounded[id], want[id]) << "seed " << seed << " id " << id;
      }
    }
  }
}

TEST(KernelFuzzTest, TopKScansMatchOracleOnDegenerateData) {
  for (uint64_t seed = 100; seed < 140; ++seed) {
    Rng rng(seed);
    const size_t n = 1 + static_cast<size_t>(rng.UniformInt(
                             0, static_cast<int64_t>(3 * kDistanceBlock) - 1));
    const int d = 1 + static_cast<int>(rng.UniformInt(0, kMaxFuzzDims - 1));
    data::Dataset ds = MakeDegenerate(n, d, &rng);
    const MetricKind metric = kMetrics[seed % 3];
    knn::LinearScanKnn engine(ds, metric);
    // Small nodes, so even these datasets make multi-leaf trees.
    index::XTreeConfig config;
    config.max_entries = 4;
    auto bulk_tree = index::XTree::BulkLoad(ds, metric, config);
    auto grown_tree = index::XTree::BuildByInsertion(ds, metric, config);
    ASSERT_TRUE(bulk_tree.ok() && grown_tree.ok());

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
      const auto got = engine.Search(query);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].id, want[i].id) << "seed " << seed << " rank " << i;
        ASSERT_EQ(got[i].distance, want[i].distance)
            << "seed " << seed << " rank " << i;
      }
      for (const auto* tree : {&*bulk_tree, &*grown_tree}) {
        const char* label = tree == &*bulk_tree ? "bulk" : "insertion";
        const auto tree_got = tree->Knn(query);
        ASSERT_EQ(tree_got.size(), want.size())
            << label << " seed " << seed << " trial " << trial;
        for (size_t i = 0; i < tree_got.size(); ++i) {
          ASSERT_EQ(tree_got[i].id, want[i].id)
              << label << " seed " << seed << " trial " << trial << " rank "
              << i;
          ASSERT_EQ(tree_got[i].distance, want[i].distance)
              << label << " seed " << seed << " trial " << trial << " rank "
              << i;
        }
      }

      // The fused multi-point scan: 1..9 points (across kQueryBlock),
      // mixing self-excluded rows and external points, each answered
      // exactly as the oracle answers it alone.
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
      const auto batch_got =
          engine.SearchBatch(points, query.subspace, query.k);
      ASSERT_EQ(batch_got.size(), batch) << "seed " << seed;
      for (size_t b = 0; b < batch; ++b) {
        const std::vector<Neighbor> batch_want =
            OracleKnn(ds, batch_points[b], query.subspace, metric,
                      points[b].exclude, query.k);
        ASSERT_EQ(batch_got[b].size(), batch_want.size())
            << "seed " << seed << " trial " << trial << " point " << b;
        for (size_t i = 0; i < batch_want.size(); ++i) {
          ASSERT_EQ(batch_got[b][i].id, batch_want[i].id)
              << "seed " << seed << " trial " << trial << " point " << b
              << " rank " << i;
          ASSERT_EQ(batch_got[b][i].distance, batch_want[i].distance)
              << "seed " << seed << " trial " << trial << " point " << b
              << " rank " << i;
        }
      }

      // RangeSearch against the same oracle distances.
      const double radius = rng.Uniform(0.0, 1.5);
      auto in_range = engine.RangeSearch(q, query.subspace, radius);
      size_t expect_count = 0;
      for (data::PointId id = 0; id < n; ++id) {
        const double dist =
            knn::SubspaceDistance(q, ds.Row(id), query.subspace, metric);
        if (dist <= radius) ++expect_count;
      }
      ASSERT_EQ(in_range.size(), expect_count) << "seed " << seed;
      for (const auto& neighbor : in_range) {
        ASSERT_LE(neighbor.distance, radius);
      }
      // The trees' range answers match the scan's bitwise, order included.
      for (const auto* tree : {&*bulk_tree, &*grown_tree}) {
        const auto tree_range = tree->RangeSearch(q, query.subspace, radius);
        ASSERT_EQ(tree_range.size(), in_range.size()) << "seed " << seed;
        for (size_t i = 0; i < tree_range.size(); ++i) {
          ASSERT_EQ(tree_range[i].id, in_range[i].id) << "seed " << seed;
          ASSERT_EQ(tree_range[i].distance, in_range[i].distance)
              << "seed " << seed;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hos::kernels
