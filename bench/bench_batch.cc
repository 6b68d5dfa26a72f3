// Fused multi-query execution benchmark: screening throughput (full-space
// OD per point) through the per-point loop versus the batched kNN entry
// point (knn::OutlyingDegreeBatch) at block sizes B in {1, 4, 16, 64}, for
// both backends — linear scan and X-tree. The B=1 rows compare the two
// backends' per-point screening directly. Every batched row is verified
// bitwise against the per-point loop before it is timed; a row only counts
// if the answers are identical. Also measures the OdCache sharded
// multi-probe (LookupMulti/StoreMulti) against the per-key lock-per-call
// loop it replaces in the service's fused batch path.
//
// Writes BENCH_batch.json (or argv[1]). The acceptance headline is the
// B=16 screening speedup vs B=1 on the planted band workload; the fused
// linear scan's win is memory locality (one column-block pass serves up to
// kQueryBlock query rows), so it holds on a single core —
// hardware_concurrency is recorded alongside the rows.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/timer.h"
#include "src/core/hos_miner.h"
#include "src/eval/report.h"
#include "src/knn/knn_engine.h"
#include "src/service/od_cache.h"

namespace {

using namespace hos;  // NOLINT

size_t g_num_points = 20000;  // overridable: argv[2]; shrunk by --smoke
constexpr int kNumDims = 8;
constexpr int kK = 5;

// Points screened per timed pass / best-of trials, shrunk by --smoke.
size_t ScreenIds() { return bench::SmokeSize(256, 64); }
int Trials() { return bench::SmokeMode() ? 1 : 3; }

struct ScreenRow {
  const char* backend;
  size_t block;  // 1 = the historical per-point loop
  double qps = 0.0;
  double speedup_vs_b1 = 1.0;
  /// Engine entry-point invocations per screened point (1/B when batched).
  double knn_calls_per_point = 1.0;
  bool identical = true;  // batched ODs bitwise equal to the per-point loop
};

core::HosMiner BuildMiner(core::IndexKind index) {
  auto workload = bench::MakeWorkload(g_num_points, kNumDims, /*seed=*/99);
  core::HosMinerConfig config;
  config.k = kK;
  config.index = index;
  auto miner = core::HosMiner::Build(std::move(workload.dataset), config);
  if (!miner.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 miner.status().ToString().c_str());
    std::abort();
  }
  return std::move(miner).value();
}

std::vector<data::PointId> ScreenSet(size_t dataset_size) {
  // Contiguous ids: Screen/ScreenBatch walk the dataset in id order, so
  // the timed window is exactly the shape the fused path sees in
  // production.
  std::vector<data::PointId> ids;
  ids.reserve(ScreenIds());
  for (size_t i = 0; i < ScreenIds(); ++i) {
    ids.push_back(static_cast<data::PointId>(i % dataset_size));
  }
  return ids;
}

/// One timed pass: full-space OD of every id, in blocks of `block`
/// (block 1 takes the per-point OutlyingDegree path). Returns seconds.
double TimeScreen(const core::HosMiner& miner,
                  const std::vector<data::PointId>& ids, size_t block,
                  std::vector<double>* ods) {
  const knn::KnnEngine& engine = miner.engine();
  const Subspace full((uint64_t{1} << miner.num_dims()) - 1);
  ods->clear();
  ods->reserve(ids.size());
  Timer timer;
  if (block <= 1) {
    for (data::PointId id : ids) {
      knn::KnnQuery query;
      query.point = miner.dataset().Row(id);
      query.subspace = full;
      query.k = kK;
      query.exclude = id;
      ods->push_back(knn::OutlyingDegree(engine, query));
    }
  } else {
    std::vector<knn::BatchPointQuery> queries;
    for (size_t start = 0; start < ids.size(); start += block) {
      const size_t count = std::min(block, ids.size() - start);
      queries.clear();
      for (size_t i = 0; i < count; ++i) {
        queries.push_back(
            {miner.dataset().Row(ids[start + i]), ids[start + i]});
      }
      const std::vector<double> chunk =
          knn::OutlyingDegreeBatch(engine, queries, full, kK);
      ods->insert(ods->end(), chunk.begin(), chunk.end());
    }
  }
  return timer.ElapsedSeconds();
}

std::vector<ScreenRow> ScreenSweep(const char* name,
                                   const core::HosMiner& miner) {
  const std::vector<data::PointId> ids = ScreenSet(miner.dataset().size());
  std::vector<double> reference;
  TimeScreen(miner, ids, 1, &reference);  // warm + ground truth

  std::vector<ScreenRow> rows;
  for (size_t block : {size_t{1}, size_t{4}, size_t{16}, size_t{64}}) {
    std::vector<double> ods;
    double best = 0.0;
    for (int trial = 0; trial < Trials(); ++trial) {
      const double seconds = TimeScreen(miner, ids, block, &ods);
      if (trial == 0 || seconds < best) best = seconds;
    }
    ScreenRow row;
    row.backend = name;
    row.block = block;
    row.qps = static_cast<double>(ids.size()) / best;
    row.knn_calls_per_point = 1.0 / static_cast<double>(block);
    row.identical = ods == reference;  // bitwise, or the row is void
    rows.push_back(row);
  }
  for (ScreenRow& row : rows) row.speedup_vs_b1 = row.qps / rows[0].qps;
  return rows;
}

// --- OdCache multi-probe ---------------------------------------------------

struct CacheRow {
  double lookup_loop_ns_per_key = 0.0;
  double lookup_multi_ns_per_key = 0.0;
  double speedup = 0.0;
  size_t batch = 0;
  int shards = 0;
};

CacheRow CacheMultiProbe() {
  service::OdCacheConfig config;
  config.capacity = 1 << 15;
  service::OdCache cache(config);
  constexpr uint64_t kVersion = 7;
  constexpr size_t kKeys = 4096;
  for (size_t i = 0; i < kKeys; ++i) {
    cache.Store(kVersion, static_cast<data::PointId>(i % 257),
                /*mask=*/1 + i, static_cast<double>(i));
  }

  constexpr size_t kBatch = 64;
  constexpr int kReps = 2000;
  std::vector<search::SharedOdStore::OdKey> keys(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    keys[i] = {static_cast<data::PointId>((i * 31) % 257), 1 + i * 31};
  }
  std::vector<double> od(kBatch);
  std::vector<uint8_t> found(kBatch);

  // Per-key loop: one shard lock acquisition per key (the pre-fusion
  // QueryBatch pattern), vs one multi-probe: one acquisition per touched
  // shard per batch.
  double sink = 0.0;
  Timer loop_timer;
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t i = 0; i < kBatch; ++i) {
      double value = 0.0;
      if (cache.Lookup(kVersion, keys[i].id, keys[i].mask, &value)) {
        sink += value;
      }
    }
  }
  const double loop_seconds = loop_timer.ElapsedSeconds();

  Timer multi_timer;
  for (int rep = 0; rep < kReps; ++rep) {
    cache.LookupMulti(kVersion, keys, od, found);
    sink += od[0];
  }
  const double multi_seconds = multi_timer.ElapsedSeconds();
  if (sink < 0.0) std::printf("%f", sink);  // defeat dead-code elimination

  CacheRow row;
  row.batch = kBatch;
  row.shards = config.num_shards;
  row.lookup_loop_ns_per_key = loop_seconds * 1e9 / (kReps * kBatch);
  row.lookup_multi_ns_per_key = multi_seconds * 1e9 / (kReps * kBatch);
  row.speedup = row.lookup_multi_ns_per_key > 0.0
                    ? row.lookup_loop_ns_per_key / row.lookup_multi_ns_per_key
                    : 0.0;
  return row;
}

void WriteJson(const std::vector<std::vector<ScreenRow>>& sweeps,
               const CacheRow& cache_row, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"batch\",\n  %s,\n  \"smoke\": %s,\n"
               "  \"num_points\": %zu,\n"
               "  \"num_dims\": %d,\n  \"k\": %d,\n"
               "  \"screened_points\": %zu,\n"
               "  \"screening\": [\n",
               bench::ProvenanceJsonFields().c_str(),
               bench::SmokeMode() ? "true" : "false", g_num_points, kNumDims,
               kK, ScreenIds());
  bool first = true;
  for (const auto& sweep : sweeps) {
    for (const ScreenRow& r : sweep) {
      std::fprintf(f,
                   "%s    {\"backend\": \"%s\", \"B\": %zu, \"qps\": %.1f, "
                   "\"speedup_vs_b1\": %.2f, \"knn_calls_per_point\": %.4f, "
                   "\"bitwise_identical\": %s}",
                   first ? "" : ",\n", r.backend, r.block, r.qps,
                   r.speedup_vs_b1, r.knn_calls_per_point,
                   r.identical ? "true" : "false");
      first = false;
    }
  }
  std::fprintf(f,
               "\n  ],\n  \"od_cache_multiprobe\": {\"batch\": %zu, "
               "\"shards\": %d, \"lookup_loop_ns_per_key\": %.1f, "
               "\"lookup_multi_ns_per_key\": %.1f, \"speedup\": %.2f}\n}\n",
               cache_row.batch, cache_row.shards,
               cache_row.lookup_loop_ns_per_key,
               cache_row.lookup_multi_ns_per_key, cache_row.speedup);
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

void Run(const std::string& json_path) {
  bench::Banner("B1", "fused multi-query screening throughput");
  std::printf("n=%zu d=%d k=%d, %zu screened points per pass, cores=%u\n",
              g_num_points, kNumDims, kK, ScreenIds(),
              std::thread::hardware_concurrency());

  std::vector<std::vector<ScreenRow>> sweeps;
  {
    core::HosMiner miner = BuildMiner(core::IndexKind::kLinearScan);
    sweeps.push_back(ScreenSweep("linear", miner));
  }
  {
    core::HosMiner miner = BuildMiner(core::IndexKind::kXTree);
    sweeps.push_back(ScreenSweep("xtree", miner));
  }

  eval::Table table(
      {"backend", "B", "qps", "speedup vs B=1", "knn calls/pt", "bitwise"});
  for (const auto& sweep : sweeps) {
    for (const ScreenRow& r : sweep) {
      table.AddRow({r.backend, std::to_string(r.block),
                    eval::FormatDouble(r.qps, 1),
                    eval::FormatDouble(r.speedup_vs_b1, 2),
                    eval::FormatDouble(r.knn_calls_per_point, 4),
                    r.identical ? "yes" : "NO"});
    }
  }
  table.Print();

  bench::Banner("B2", "OdCache sharded multi-probe");
  const CacheRow cache_row = CacheMultiProbe();
  std::printf(
      "batch=%zu over %d shards: %.1f ns/key per-key loop, %.1f ns/key "
      "multi-probe (%.2fx)\n",
      cache_row.batch, cache_row.shards, cache_row.lookup_loop_ns_per_key,
      cache_row.lookup_multi_ns_per_key, cache_row.speedup);

  WriteJson(sweeps, cache_row, json_path);
}

}  // namespace

int main(int argc, char** argv) {
  bench::ConsumeSmokeFlag(&argc, argv);
  if (argc > 2) g_num_points = static_cast<size_t>(std::atol(argv[2]));
  g_num_points = bench::SmokeSize(g_num_points, 2000);
  Run(argc > 1 ? argv[1] : "BENCH_batch.json");
  return 0;
}
