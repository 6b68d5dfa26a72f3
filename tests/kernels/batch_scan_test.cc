// Differential suite for the fused multi-point scan (ScanAllForTopKMulti):
// for randomized datasets, metrics, subspaces, k values and batch sizes
// straddling kQueryBlock, each query point's collector must finish with
// exactly — bitwise, not approximately — the content its sequential
// ScanAllForTopK run produces. This is the ground layer of the fused
// multi-query execution stack: the linear scan's batch path and the
// co-scheduled lattice search rest on this identity.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "src/kernels/batched_distance.h"
#include "src/kernels/dataset_view.h"
#include "src/knn/metric.h"

namespace hos::kernels {
namespace {

using knn::MetricKind;
using knn::Neighbor;

Subspace RandomSubspace(int d, Rng* rng) {
  uint64_t mask = 0;
  for (int dim = 0; dim < d; ++dim) {
    if (rng->UniformInt(0, 1) == 1) mask |= uint64_t{1} << dim;
  }
  if (mask == 0) mask = 1;  // empty subspaces are not searched
  return Subspace(mask);
}

TEST(BatchScanTest, ScanAllMultiMatchesSequentialBitwise) {
  Rng rng(7001);
  for (MetricKind metric :
       {MetricKind::kL2, MetricKind::kL1, MetricKind::kLInf}) {
    for (size_t batch : {1u, 3u, 8u, 17u}) {  // below, at and above kQueryBlock
      const size_t n = 120 + static_cast<size_t>(rng.UniformInt(0, 80));
      const int d = 3 + static_cast<int>(rng.UniformInt(0, 7));
      data::Dataset ds = data::GenerateUniform(n, d, &rng);
      DatasetView view = DatasetView::Build(ds);
      const Subspace subspace = RandomSubspace(d, &rng);
      const int k = 1 + static_cast<int>(rng.UniformInt(0, 7));
      SCOPED_TRACE("metric=" + std::to_string(static_cast<int>(metric)) +
                   " batch=" + std::to_string(batch) + " d=" +
                   std::to_string(d) + " k=" + std::to_string(k));

      // Query points: a mix of dataset rows (self-excluded) and external
      // points (no exclusion).
      std::vector<std::optional<data::PointId>> excludes(batch);
      std::vector<std::vector<double>> external(batch);
      std::vector<TopKCollector> fused;
      std::vector<MultiPointQuery> queries(batch);
      fused.reserve(batch);
      for (size_t b = 0; b < batch; ++b) {
        fused.emplace_back(static_cast<size_t>(k));
        if (b % 2 == 0) {
          const auto id =
              static_cast<data::PointId>(rng.UniformInt(0, n - 1));
          excludes[b] = id;
          queries[b].point = ds.Row(id).data();
        } else {
          for (int dim = 0; dim < d; ++dim) {
            external[b].push_back(rng.Uniform());
          }
          queries[b].point = external[b].data();
        }
        queries[b].exclude = excludes[b];
        queries[b].collector = &fused[b];
      }

      const uint64_t fused_examined =
          ScanAllForTopKMulti(view, queries, subspace, metric);

      uint64_t seq_examined = 0;
      for (size_t b = 0; b < batch; ++b) {
        TopKCollector reference(static_cast<size_t>(k));
        std::span<const double> point(queries[b].point,
                                      static_cast<size_t>(d));
        seq_examined += ScanAllForTopK(view, point, subspace, metric,
                                       excludes[b], &reference);
        EXPECT_EQ(fused[b].TakeSorted(), reference.TakeSorted())
            << "query " << b;
      }
      // The fused pass reports the summed per-point examined counts,
      // matching B sequential scans (the backends' distance counters).
      EXPECT_EQ(fused_examined, seq_examined);
    }
  }
}

TEST(BatchScanTest, TombstoneFilteringMatchesSequential) {
  Rng rng(7003);
  const size_t n = 150;
  const int d = 5;
  data::Dataset ds = data::GenerateUniform(n, d, &rng);
  std::vector<data::PointId> dead = {3, 17, 42, 99, 140};
  ASSERT_TRUE(ds.DeleteRows(dead).ok());
  DatasetView view = DatasetView::Build(ds);
  const Subspace full((uint64_t{1} << d) - 1);

  const size_t batch = 9;
  std::vector<TopKCollector> fused;
  std::vector<MultiPointQuery> queries(batch);
  std::vector<data::PointId> query_ids(batch);
  fused.reserve(batch);
  for (size_t b = 0; b < batch; ++b) {
    // Live filter at admission: dead rows can neither enter the answer nor
    // tighten the bound, exactly like the sequential path.
    fused.emplace_back(4, &ds);
    query_ids[b] = static_cast<data::PointId>(2 * b);
    queries[b].point = ds.Row(query_ids[b]).data();
    queries[b].exclude = query_ids[b];
    queries[b].collector = &fused[b];
  }
  ScanAllForTopKMulti(view, queries, full, MetricKind::kL2);

  for (size_t b = 0; b < batch; ++b) {
    TopKCollector reference(4, &ds);
    ScanAllForTopK(view, ds.Row(query_ids[b]), full, MetricKind::kL2,
                   query_ids[b], &reference);
    const std::vector<Neighbor> got = fused[b].TakeSorted();
    EXPECT_EQ(got, reference.TakeSorted()) << "query " << b;
    for (const Neighbor& neighbor : got) {
      EXPECT_TRUE(ds.IsLive(neighbor.id));
    }
  }
}

}  // namespace
}  // namespace hos::kernels
