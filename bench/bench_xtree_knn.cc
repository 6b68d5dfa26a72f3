// E8: the X-tree indexing module — subspace-kNN latency of the X-tree vs a
// linear scan, across dataset sizes and query-subspace dimensionalities.
// google-benchmark microbenchmarks (time per kNN query) plus a summary
// table of time and distance computations per query, both engines timed
// query by query in one interleaved loop. Exits 1 when an X-tree build
// fails, its leaf table fails CheckInvariants, or either engine's
// neighbours differ from the scalar reference's (testutil::OracleKnn, one
// knn::SubspaceDistance per row with no kernel and no leaf table, so a
// fault both engines share cannot pass).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/timer.h"
#include "src/data/generator.h"
#include "src/eval/report.h"
#include "src/index/xtree.h"
#include "src/knn/linear_scan.h"
#include "tests/testutil/knn_oracle.h"

namespace {

using namespace hos;  // NOLINT

constexpr int kDims = 10;
constexpr int kK = 5;

struct Fixture {
  data::Dataset dataset;
  std::unique_ptr<index::XTree> tree;

  static Fixture& Get(size_t n) {
    static std::map<size_t, std::unique_ptr<Fixture>> cache;
    auto& slot = cache[n];
    if (!slot) {
      Rng rng(n);
      data::GaussianMixtureSpec spec;
      spec.num_points = n;
      spec.num_dims = kDims;
      spec.num_clusters = 8;
      slot = std::make_unique<Fixture>();
      slot->dataset = data::GenerateGaussianMixture(spec, &rng);
      auto tree = index::XTree::BulkLoad(slot->dataset, knn::MetricKind::kL2);
      const Status status = tree.ok() ? tree->CheckInvariants() : tree.status();
      if (!status.ok()) {
        std::fprintf(stderr, "X-TREE FAILURE at N=%zu: %s\n", n,
                     status.ToString().c_str());
        std::exit(1);
      }
      slot->tree = std::make_unique<index::XTree>(std::move(tree).value());
    }
    return *slot;
  }

  Fixture() : dataset(kDims) {}
};

knn::KnnQuery MakeQuery(const data::Dataset& ds, int subspace_dims,
                        Rng* rng) {
  knn::KnnQuery query;
  auto id = static_cast<data::PointId>(rng->UniformInt(0, ds.size() - 1));
  query.point = ds.Row(id);
  std::vector<int> dims;
  for (size_t dim : rng->SampleWithoutReplacement(
           kDims, static_cast<size_t>(subspace_dims))) {
    dims.push_back(static_cast<int>(dim));
  }
  query.subspace = Subspace::FromDims(dims);
  query.k = kK;
  query.exclude = id;
  return query;
}

void BM_XTreeSearch(benchmark::State& state) {
  Fixture& f = Fixture::Get(static_cast<size_t>(state.range(0)));
  const int subspace_dims = static_cast<int>(state.range(1));
  Rng rng(1);
  for (auto _ : state) {
    auto query = MakeQuery(f.dataset, subspace_dims, &rng);
    benchmark::DoNotOptimize(f.tree->Search(query));
  }
}
BENCHMARK(BM_XTreeSearch)
    ->ArgsProduct({{2000, 10000, 50000}, {2, 5, 10}})
    ->ArgNames({"N", "subdims"});

void BM_LinearScanKnn(benchmark::State& state) {
  Fixture& f = Fixture::Get(static_cast<size_t>(state.range(0)));
  const int subspace_dims = static_cast<int>(state.range(1));
  knn::LinearScanKnn engine(f.dataset, knn::MetricKind::kL2);
  Rng rng(1);
  for (auto _ : state) {
    auto query = MakeQuery(f.dataset, subspace_dims, &rng);
    benchmark::DoNotOptimize(engine.Search(query));
  }
}
BENCHMARK(BM_LinearScanKnn)
    ->ArgsProduct({{2000, 10000, 50000}, {2, 5, 10}})
    ->ArgNames({"N", "subdims"});

/// True when `engine`'s answer `got` equals the scalar reference's `want`;
/// reports the engine on stderr otherwise.
bool MatchesOracle(const char* engine, const std::vector<knn::Neighbor>& got,
                   const std::vector<knn::Neighbor>& want, size_t n,
                   int subspace_dims) {
  if (got == want) return true;
  std::fprintf(stderr,
               "NEIGHBOUR MISMATCH at N=%zu, %d subspace dims: the %s's "
               "answer differs from the scalar reference's\n",
               n, subspace_dims, engine);
  return false;
}

/// Prints the E8 table. Returns false, after reporting on stderr, when the
/// X-tree or the scan answers a query unlike the scalar reference.
bool PrintTimeAndDistances() {
  bench::Banner("E8",
                "X-tree vs linear scan: time and distance computations per "
                "kNN");
  eval::Table table({"N", "subspace dims", "x-tree ns/query",
                     "scan ns/query", "x-tree speedup", "x-tree dists/query",
                     "scan dists/query"});
  for (size_t n : bench::SmokeSweep<size_t>({2000, 10000, 50000})) {
    Fixture& f = Fixture::Get(n);
    for (int subspace_dims : {2, 5, 10}) {
      Rng rng(2);
      knn::LinearScanKnn scan(f.dataset, knn::MetricKind::kL2);
      const int kQueries = bench::SmokeMode() ? 10 : 500;
      std::vector<knn::KnnQuery> queries;
      for (int i = 0; i < kQueries; ++i) {
        queries.push_back(MakeQuery(f.dataset, subspace_dims, &rng));
      }
      // Both engines answer each query back to back, so host drift lands
      // on both columns alike.
      const uint64_t tree_before = f.tree->distance_computations();
      AccumulatingTimer tree_time, scan_time;
      for (const knn::KnnQuery& query : queries) {
        tree_time.Start();
        const std::vector<knn::Neighbor> tree_answer = f.tree->Search(query);
        tree_time.Stop();
        scan_time.Start();
        const std::vector<knn::Neighbor> scan_answer = scan.Search(query);
        scan_time.Stop();
        const std::vector<knn::Neighbor> want = testutil::OracleKnn(
            f.dataset, query.point, query.subspace, knn::MetricKind::kL2,
            query.exclude, query.k);
        const bool tree_ok =
            MatchesOracle("X-tree", tree_answer, want, n, subspace_dims);
        const bool scan_ok =
            MatchesOracle("linear scan", scan_answer, want, n, subspace_dims);
        if (!tree_ok || !scan_ok) return false;
      }
      const double tree_ns = tree_time.TotalSeconds() * 1e9 / kQueries;
      const double scan_ns = scan_time.TotalSeconds() * 1e9 / kQueries;
      const double tree_dists =
          static_cast<double>(f.tree->distance_computations() - tree_before) /
          kQueries;
      const double scan_dists =
          static_cast<double>(scan.distance_computations()) / kQueries;
      table.AddRow({std::to_string(n), std::to_string(subspace_dims),
                    eval::FormatDouble(tree_ns, 0),
                    eval::FormatDouble(scan_ns, 0),
                    eval::FormatDouble(scan_ns / tree_ns, 2) + "x",
                    eval::FormatDouble(tree_dists, 0),
                    eval::FormatDouble(scan_dists, 0)});
    }
  }
  table.Print();
  std::printf(
      "\nPaper shape: the single full-dimensional X-tree answers kNN in any\n"
      "subspace. Its leaf boxes separate the data best in low-dimensional\n"
      "subspaces, and a query whose boxes cannot be separated sweeps every\n"
      "leaf like the scan. Speed is the ns/query columns; distance counts\n"
      "show pruned work, which is not the same as time saved.\n");
  return true;
}

}  // namespace

// Smoke mode (--smoke): shrink the table sweeps above and ask
// google-benchmark for a near-zero min time so every registered benchmark
// still executes once; the filter keeps only the smallest-argument variants.
int main(int argc, char** argv) {
  hos::bench::ConsumeSmokeFlag(&argc, argv);
  if (!PrintTimeAndDistances()) return 1;
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
