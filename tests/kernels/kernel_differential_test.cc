// Differential harness for the batched distance kernel: on randomized
// datasets (varying n, d, metric, normalization) and randomized subspaces —
// including empty, singleton and full — the kernel must reproduce the scalar
// knn::SubspaceDistance path, and every kNN backend wired onto the kernel
// (linear scan, iDistance, VA-file, X-tree) must return exactly the
// neighbour id sequence of a scalar-metric reference scan, with OD values
// within 1e-9. A concurrent section runs the same comparison from several
// threads so the TSan CI job exercises the kernel the way QueryService
// calls it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "src/data/normalizer.h"
#include "src/index/idistance.h"
#include "src/index/va_file.h"
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

/// The pre-rewire reference: a brute-force scan through the scalar metric
/// path, sorted ascending (distance, id), truncated to k.
std::vector<Neighbor> ScalarKnn(const data::Dataset& ds, const KnnQuery& query,
                                MetricKind metric) {
  std::vector<Neighbor> all;
  for (data::PointId id = 0; id < ds.size(); ++id) {
    if (query.exclude && *query.exclude == id) continue;
    all.push_back({id, knn::SubspaceDistance(query.point, ds.Row(id),
                                             query.subspace, metric)});
  }
  std::sort(all.begin(), all.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  });
  if (all.size() > static_cast<size_t>(std::max(query.k, 0))) {
    all.resize(static_cast<size_t>(std::max(query.k, 0)));
  }
  return all;
}

double OdOf(const std::vector<Neighbor>& neighbors) {
  double sum = 0.0;
  for (const Neighbor& n : neighbors) sum += n.distance;
  return sum;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << context << " rank " << i;
    EXPECT_NEAR(got[i].distance, want[i].distance, 1e-9)
        << context << " rank " << i;
  }
  EXPECT_NEAR(OdOf(got), OdOf(want), 1e-9) << context;
}

std::vector<Subspace> TestSubspaces(int d, Rng* rng, int num_random) {
  std::vector<Subspace> out;
  out.push_back(Subspace());                 // empty
  out.push_back(Subspace(uint64_t{1}));      // first singleton
  out.push_back(Subspace(uint64_t{1} << (d - 1)));  // last singleton
  out.push_back(Subspace::Full(d));
  for (int i = 0; i < num_random; ++i) {
    out.push_back(Subspace(1 + static_cast<uint64_t>(rng->UniformInt(
                               0, (int64_t{1} << d) - 2))));
  }
  return out;
}

struct DiffParam {
  size_t n;
  int d;
  MetricKind metric;
  data::NormalizationKind normalization;
  /// Snap coordinates to a coarse grid and duplicate rows, so many ids
  /// share each distance — the k-th one included — across leaves.
  bool ties = false;
};

class KernelDifferentialTest : public ::testing::TestWithParam<DiffParam> {};

data::Dataset MakeData(const DiffParam& param, Rng* rng) {
  // Mix scales per dimension so normalization actually changes the data.
  data::Dataset ds = data::GenerateUniform(param.n, param.d, rng);
  for (data::PointId i = 0; i < ds.size(); ++i) {
    for (int dim = 0; dim < param.d; ++dim) {
      ds.Set(i, dim, ds.At(i, dim) * (1.0 + 10.0 * dim) - 3.0 * dim);
    }
  }
  data::Normalizer::Fit(ds, param.normalization).Apply(&ds);
  if (param.ties) {
    for (data::PointId i = 0; i < ds.size(); ++i) {
      for (int dim = 0; dim < param.d; ++dim) {
        ds.Set(i, dim, std::round(ds.At(i, dim) * 4.0) / 4.0);
      }
    }
    // Every fifth row repeats a row from the other end of the id range.
    for (data::PointId i = 0; i < ds.size(); i += 5) {
      const data::PointId source =
          static_cast<data::PointId>(ds.size() - 1 - i / 2);
      for (int dim = 0; dim < param.d; ++dim) {
        ds.Set(i, dim, ds.At(source, dim));
      }
    }
  }
  return ds;
}

/// All rows within `radius` (inclusive) through the scalar metric path,
/// ascending (distance, id).
std::vector<Neighbor> ScalarRange(const data::Dataset& ds,
                                  std::span<const double> point,
                                  const Subspace& subspace, double radius,
                                  MetricKind metric) {
  std::vector<Neighbor> out;
  for (data::PointId id = 0; id < ds.size(); ++id) {
    const double dist =
        knn::SubspaceDistance(point, ds.Row(id), subspace, metric);
    if (dist <= radius) out.push_back({id, dist});
  }
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  });
  return out;
}

/// Bitwise (distance, id) sequence equality.
void ExpectExactNeighbors(const std::vector<Neighbor>& got,
                          const std::vector<Neighbor>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << context << " rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << context << " rank " << i;
  }
}

TEST_P(KernelDifferentialTest, BatchedDistancesMatchScalarMetric) {
  const DiffParam param = GetParam();
  Rng rng(param.n * 131 + param.d);
  data::Dataset ds = MakeData(param, &rng);
  DatasetView view = DatasetView::Build(ds);

  std::vector<data::PointId> all_ids(ds.size());
  for (size_t i = 0; i < all_ids.size(); ++i) {
    all_ids[i] = static_cast<data::PointId>(i);
  }

  for (const Subspace& s : TestSubspaces(param.d, &rng, 4)) {
    std::vector<double> q(param.d);
    for (auto& v : q) v = rng.Uniform(-1.0, 2.0);

    // Contiguous and gathered forms, no bound: every distance exact.
    std::vector<double> range_dist(ds.size());
    std::vector<double> gather_dist(ds.size());
    BatchedSubspaceDistanceRange(view, q, s, param.metric, 0, ds.size(),
                                 kPrunedDistance, range_dist);
    BatchedSubspaceDistance(view, q, s, param.metric, all_ids,
                            kPrunedDistance, gather_dist);
    for (data::PointId id = 0; id < ds.size(); ++id) {
      const double want =
          knn::SubspaceDistance(q, ds.Row(id), s, param.metric);
      EXPECT_NEAR(range_dist[id], want, 1e-9) << s.ToString();
      // The kernel accumulates in the scalar path's dimension order, so the
      // match is in fact bitwise, not just within tolerance.
      EXPECT_EQ(range_dist[id], want) << s.ToString();
      EXPECT_EQ(gather_dist[id], want) << s.ToString();
    }

    // Bounded form: pruned candidates must be provably beyond the bound,
    // survivors exact.
    const double bound = range_dist[ds.size() / 2];
    std::vector<double> bounded(ds.size());
    BatchedSubspaceDistanceRange(view, q, s, param.metric, 0, ds.size(),
                                 bound, bounded);
    for (data::PointId id = 0; id < ds.size(); ++id) {
      if (bounded[id] == kPrunedDistance) {
        EXPECT_GT(range_dist[id], bound) << s.ToString();
      } else {
        EXPECT_EQ(bounded[id], range_dist[id]) << s.ToString();
      }
    }
  }
}

TEST_P(KernelDifferentialTest, AllBackendsMatchScalarReference) {
  const DiffParam param = GetParam();
  Rng rng(param.n * 733 + param.d);
  data::Dataset ds = MakeData(param, &rng);

  knn::LinearScanKnn linear(ds, param.metric);
  auto bulk_tree = index::XTree::BulkLoad(ds, param.metric);
  auto grown_tree = index::XTree::BuildByInsertion(ds, param.metric);
  auto va = index::VaFile::Build(ds, param.metric);
  Rng build_rng(7);
  auto idist = index::IDistance::Build(ds, param.metric, {}, &build_rng);
  ASSERT_TRUE(bulk_tree.ok() && grown_tree.ok() && va.ok() && idist.ok());

  const Subspace full = Subspace::Full(param.d);
  for (int trial = 0; trial < 12; ++trial) {
    KnnQuery query;
    std::vector<double> q(param.d);
    data::PointId row = 0;
    const bool from_dataset = trial % 2 == 0;
    if (from_dataset) {
      row = static_cast<data::PointId>(
          rng.UniformInt(0, static_cast<int64_t>(ds.size()) - 1));
      q = ds.RowCopy(row);
      query.exclude = row;
    } else {
      for (auto& v : q) v = rng.Uniform(-0.5, 1.5);
    }
    query.point = q;
    query.subspace = trial < 3
                         ? full
                         : Subspace(1 + static_cast<uint64_t>(rng.UniformInt(
                                        0, (int64_t{1} << param.d) - 2)));
    query.k = trial == 0 ? static_cast<int>(ds.size()) + 3  // k >= n
                         : 1 + static_cast<int>(rng.UniformInt(0, 9));

    const auto want = ScalarKnn(ds, query, param.metric);
    ExpectSameNeighbors(linear.Search(query), want, "linear_scan");
    ExpectSameNeighbors(bulk_tree->Knn(query), want, "xtree_bulk");
    ExpectSameNeighbors(grown_tree->Knn(query), want, "xtree_insertion");
    ExpectSameNeighbors(va->Knn(query), want, "va_file");
    if (query.subspace == full) {
      ExpectSameNeighbors(idist->Knn(q, query.k, query.exclude), want,
                          "idistance");
    }
  }
}

// The leaf-ordered X-tree against the scalar reference, bitwise: Knn and
// RangeSearch on bulk-loaded and insertion-built trees. Knn's radius-k
// range (the k-th distance) is where ties across leaves decide the answer.
// Knn must also visit exactly the nodes whose MBR min-distance is <= the
// k-th neighbour distance — the nodes RangeSearch visits at that radius —
// which pins its stop rule: a node exactly at the bound is still scanned,
// since it may hold a tie with a smaller id.
TEST_P(KernelDifferentialTest, XTreeMatchesScalarReferenceExactly) {
  const DiffParam param = GetParam();
  Rng rng(param.n * 577 + param.d);
  data::Dataset ds = MakeData(param, &rng);
  auto bulk_tree = index::XTree::BulkLoad(ds, param.metric);
  auto grown_tree = index::XTree::BuildByInsertion(ds, param.metric);
  ASSERT_TRUE(bulk_tree.ok() && grown_tree.ok());

  const Subspace full = Subspace::Full(param.d);
  for (int trial = 0; trial < 16; ++trial) {
    KnnQuery query;
    std::vector<double> q(param.d);
    if (trial % 2 == 0) {
      const auto row = static_cast<data::PointId>(
          rng.UniformInt(0, static_cast<int64_t>(ds.size()) - 1));
      q = ds.RowCopy(row);
      query.exclude = row;
    } else {
      for (auto& v : q) v = rng.Uniform(-0.5, 1.5);
    }
    query.point = q;
    query.subspace = trial < 4
                         ? full
                         : Subspace(1 + static_cast<uint64_t>(rng.UniformInt(
                                        0, (int64_t{1} << param.d) - 2)));
    query.k = trial == 0 ? static_cast<int>(ds.size()) + 3
                         : 1 + static_cast<int>(rng.UniformInt(0, 9));
    const auto want = ScalarKnn(ds, query, param.metric);
    const double kth_distance =
        static_cast<int>(want.size()) == query.k
            ? want.back().distance
            : std::numeric_limits<double>::infinity();
    const auto want_range =
        ScalarRange(ds, q, query.subspace, kth_distance, param.metric);
    for (const auto* tree : {&*bulk_tree, &*grown_tree}) {
      const std::string label =
          (tree == &*bulk_tree ? "bulk" : "insertion") +
          std::string(" trial ") + std::to_string(trial);
      const uint64_t nodes_before = tree->node_accesses();
      ExpectExactNeighbors(tree->Knn(query), want, label + " knn");
      const uint64_t knn_nodes = tree->node_accesses() - nodes_before;
      ExpectExactNeighbors(tree->RangeSearch(q, query.subspace, kth_distance),
                           want_range, label + " range");
      EXPECT_EQ(knn_nodes, tree->node_accesses() - nodes_before - knn_nodes)
          << label;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelDifferentialTest,
    ::testing::Values(
        // n around and below the kernel block width, n >> block, small and
        // larger d, all metrics, all normalizations.
        DiffParam{40, 6, MetricKind::kL2, data::NormalizationKind::kMinMax},
        DiffParam{63, 3, MetricKind::kL1, data::NormalizationKind::kNone},
        DiffParam{64, 1, MetricKind::kL2, data::NormalizationKind::kZScore},
        DiffParam{300, 8, MetricKind::kL2, data::NormalizationKind::kMinMax},
        DiffParam{300, 8, MetricKind::kLInf,
                  data::NormalizationKind::kZScore},
        DiffParam{450, 12, MetricKind::kL1,
                  data::NormalizationKind::kMinMax},
        DiffParam{450, 20, MetricKind::kL2, data::NormalizationKind::kNone},
        // A multi-level tree at the highd workload's width, and a
        // tie-heavy grid with duplicate rows.
        DiffParam{1200, 32, MetricKind::kL2,
                  data::NormalizationKind::kMinMax},
        DiffParam{700, 5, MetricKind::kL1, data::NormalizationKind::kMinMax,
                  /*ties=*/true}),
    [](const auto& info) {
      return std::string(info.param.ties ? "ties_" : "") + "n" +
             std::to_string(info.param.n) + "_d" +
             std::to_string(info.param.d) + "_" +
             std::string(knn::MetricKindToString(info.param.metric)) + "_" +
             (info.param.normalization == data::NormalizationKind::kNone
                  ? "raw"
                  : info.param.normalization ==
                            data::NormalizationKind::kMinMax
                        ? "minmax"
                        : "zscore");
    });

TEST(KernelDifferentialEdgeTest, SinglePointDatasetWithItselfExcluded) {
  // Regression: a 1-point dataset queried with its only row excluded must
  // yield an empty neighbour set on every backend (the VA-file used to
  // dereference an empty bound heap here).
  data::Dataset ds(3);
  ds.Append(std::vector<double>{0.1, 0.2, 0.3});
  const std::vector<double> q = ds.RowCopy(0);
  KnnQuery query;
  query.point = q;
  query.subspace = Subspace::Full(3);
  query.k = 5;
  query.exclude = data::PointId{0};

  knn::LinearScanKnn linear(ds, MetricKind::kL2);
  EXPECT_TRUE(linear.Search(query).empty());
  auto tree = index::XTree::BulkLoad(ds, MetricKind::kL2);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(tree->Knn(query).empty());
  auto va = index::VaFile::Build(ds, MetricKind::kL2);
  ASSERT_TRUE(va.ok());
  EXPECT_TRUE(va->Knn(query).empty());
  Rng rng(3);
  auto idist = index::IDistance::Build(ds, MetricKind::kL2, {}, &rng);
  ASSERT_TRUE(idist.ok());
  EXPECT_TRUE(idist->Knn(q, query.k, query.exclude).empty());
}

TEST(KernelDifferentialConcurrencyTest, ConcurrentSearchesMatchReference) {
  // The kernel is called concurrently via QueryService; replay that shape
  // directly so the TSan job can see into the batched paths of both the
  // linear scan and the X-tree.
  Rng rng(2024);
  data::Dataset ds = data::GenerateUniform(500, 7, &rng);
  knn::LinearScanKnn linear(ds, MetricKind::kL2);
  auto tree = index::XTree::BulkLoad(ds, MetricKind::kL2);
  ASSERT_TRUE(tree.ok());

  struct Case {
    std::vector<double> q;
    KnnQuery query;
    std::vector<Neighbor> want;
  };
  std::vector<Case> cases(24);
  for (auto& c : cases) {
    c.q.resize(7);
    for (auto& v : c.q) v = rng.Uniform(-0.2, 1.2);
    c.query.point = c.q;
    c.query.subspace =
        Subspace(1 + static_cast<uint64_t>(rng.UniformInt(0, 126)));
    c.query.k = 1 + static_cast<int>(rng.UniformInt(0, 7));
    c.want = ScalarKnn(ds, c.query, MetricKind::kL2);
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < cases.size(); i += 4) {
        for (int rep = 0; rep < 5; ++rep) {
          ExpectSameNeighbors(linear.Search(cases[i].query), cases[i].want,
                              "concurrent linear");
          ExpectSameNeighbors(tree->Knn(cases[i].query), cases[i].want,
                              "concurrent xtree");
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

}  // namespace
}  // namespace hos::kernels
