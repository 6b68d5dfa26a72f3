// E15 (extension): X-tree construction — STR bulk-load time, leaf count and
// post-build kNN latency across dataset sizes. The build tiles the live
// rows into leaves of at most XTree::kLeafCapacity rows and builds no
// directory (src/index/xtree.h). Exits 1 when a build fails, a leaf table
// fails CheckInvariants, or a post-build query's neighbours differ from
// the scalar reference's (testutil::OracleKnn: no kernel, no leaf table).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_util.h"
#include "src/common/timer.h"
#include "src/data/generator.h"
#include "src/eval/report.h"
#include "src/index/xtree.h"
#include "tests/testutil/knn_oracle.h"

namespace {

using namespace hos;  // NOLINT

constexpr int kDims = 10;

data::Dataset MakeClustered(size_t n) {
  Rng rng(n);
  data::GaussianMixtureSpec spec;
  spec.num_points = n;
  spec.num_dims = kDims;
  spec.num_clusters = 6;
  spec.cluster_stddev = 0.07;
  return data::GenerateGaussianMixture(spec, &rng);
}

/// Prints the E15 table. Returns false, after reporting on stderr, when a
/// build fails, a leaf table is invalid or an answer differs from the
/// scalar reference's.
bool PrintBuildTable() {
  bench::Banner("E15", "X-tree STR bulk load (d=10)");
  eval::Table table({"N", "build ms", "leaves", "avg kNN ms"});
  for (size_t n : bench::SmokeSweep<size_t>({2000, 10000, 50000})) {
    data::Dataset ds = MakeClustered(n);
    Timer timer;
    auto tree = index::XTree::BulkLoad(ds, knn::MetricKind::kL2);
    const double build_ms = timer.ElapsedMillis();
    if (!tree.ok()) {
      std::fprintf(stderr, "BUILD FAILURE at N=%zu: %s\n", n,
                   tree.status().ToString().c_str());
      return false;
    }
    if (const Status status = tree->CheckInvariants(); !status.ok()) {
      std::fprintf(stderr, "INVARIANT FAILURE at N=%zu: %s\n", n,
                   status.ToString().c_str());
      return false;
    }

    // Post-build query latency over 100 full-space kNN queries, each
    // answer checked against the scalar reference's.
    Rng rng(3);
    AccumulatingTimer query_time;
    for (int i = 0; i < 100; ++i) {
      auto id = static_cast<data::PointId>(rng.UniformInt(0, n - 1));
      knn::KnnQuery query;
      query.point = ds.Row(id);
      query.subspace = Subspace::Full(kDims);
      query.k = 5;
      query.exclude = id;
      query_time.Start();
      const std::vector<knn::Neighbor> got = tree->Search(query);
      query_time.Stop();
      if (got != testutil::OracleKnn(ds, query.point, query.subspace,
                                     knn::MetricKind::kL2, query.exclude,
                                     query.k)) {
        std::fprintf(stderr,
                     "NEIGHBOUR MISMATCH at N=%zu: the X-tree's answer for "
                     "row %u differs from the scalar reference's\n",
                     n, id);
        return false;
      }
    }
    const double query_ms = query_time.TotalSeconds() * 1e3 / 100.0;

    table.AddRow({std::to_string(n), eval::FormatDouble(build_ms, 1),
                  std::to_string(tree->ComputeStats().num_leaves),
                  eval::FormatDouble(query_ms, 3)});
  }
  table.Print();
  std::printf(
      "\nShape: the build is a selection-based STR tiling plus one SoA\n"
      "snapshot, with no directory; queries filter the leaf boxes and\n"
      "sweep the surviving leaves.\n");
  return true;
}

void BM_BuildBulk(benchmark::State& state) {
  data::Dataset ds = MakeClustered(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto tree = index::XTree::BulkLoad(ds, knn::MetricKind::kL2);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_BuildBulk)->Arg(2000)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Smoke mode (--smoke): shrink the table sweep above and ask
// google-benchmark for a near-zero min time so every registered benchmark
// still executes once; the filter keeps only the smallest-argument variants.
int main(int argc, char** argv) {
  hos::bench::ConsumeSmokeFlag(&argc, argv);
  if (!PrintBuildTable()) return 1;
  std::vector<char*> args(argv, argv + argc);
  char min_time[] = "--benchmark_min_time=0.001";
  char filter[] = "--benchmark_filter=2000";
  if (hos::bench::SmokeMode()) {
    args.push_back(min_time);
    if (filter[0] != '\0') args.push_back(filter);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
