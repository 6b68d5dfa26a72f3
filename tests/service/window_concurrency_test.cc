// Concurrency fuzz for the sliding-window path (runs in CI under
// ThreadSanitizer via the "service" / "window" labels): appender threads
// drive AppendBatch — with window_max_rows set so the commit itself evicts
// the oldest rows — deleter threads tombstone disjoint id pools, and query
// threads hammer a mixed live/dead id set, while background rebuilds and
// drift-triggered relearns run on the maintenance worker. The contract:
//
//  * every reported dataset_version is a *committed window state* — a
//    version some AppendBatch or DeleteRows call returned (or the initial
//    version). Appends + auto-eviction commit inside one writer-lock
//    critical section, so no query may observe a half-applied window;
//  * versions observed by one thread never go backwards;
//  * a query for a dead id fails with NotFound, never with a stale answer
//    or a crash, even when the row died mid-flight.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/data/generator.h"
#include "src/service/query_service.h"

namespace hos::service {
namespace {

constexpr int kDims = 5;
constexpr size_t kInitialRows = 160;
constexpr size_t kBatchRows = 8;
constexpr int kBatchesPerAppender = 16;
constexpr int kAppenders = 2;
constexpr int kDeleters = 2;
constexpr int kReaders = 3;

core::HosMiner BuildMiner() {
  Rng rng(21);
  data::Dataset dataset = data::GenerateUniform(kInitialRows, kDims, &rng);
  core::HosMinerConfig config;
  config.k = 3;
  config.threshold = 0.8;
  config.normalization = data::NormalizationKind::kNone;
  config.sample_size = 5;  // learning on, so relearns have work to do
  config.index = core::IndexKind::kXTree;
  auto miner = core::HosMiner::Build(std::move(dataset), config);
  EXPECT_TRUE(miner.ok()) << miner.status().ToString();
  return std::move(miner).value();
}

TEST(WindowConcurrencyTest, AppendEvictDeleteWhileServing) {
  QueryServiceConfig config;
  config.num_threads = 4;
  // Aggressive maintenance so rebuilds AND relearns commit mid-flight.
  config.ingest.min_delta_rows = kBatchRows;
  config.ingest.rebuild_delta_fraction = 0.05;
  config.ingest.relearn_staleness_threshold = 0.10;
  // Tight row-count window: every appender batch past the cap evicts
  // inside the same commit.
  config.ingest.window_max_rows = kInitialRows + 4 * kBatchRows;
  QueryService service(BuildMiner(), config);
  const uint64_t v0 = service.Stats().dataset_version;

  // Every version any mutating call committed. Readers validate against
  // this set only after all threads join, so late inserts are harmless.
  std::mutex committed_mu;
  std::unordered_set<uint64_t> committed = {v0};
  auto record_committed = [&](uint64_t version) {
    std::lock_guard<std::mutex> lock(committed_mu);
    committed.insert(version);
  };

  std::atomic<bool> writers_done{false};
  std::atomic<int> writers_left{kAppenders + kDeleters};
  auto writer_exits = [&]() {
    if (writers_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      writers_done.store(true, std::memory_order_release);
    }
  };

  std::vector<std::thread> writers;
  for (int a = 0; a < kAppenders; ++a) {
    writers.emplace_back([&, a]() {
      Rng rng(100 + static_cast<uint64_t>(a));
      for (int b = 0; b < kBatchesPerAppender; ++b) {
        std::vector<std::vector<double>> rows(kBatchRows,
                                              std::vector<double>(kDims));
        for (auto& row : rows) {
          for (double& cell : row) cell = rng.Uniform();
        }
        auto version = service.AppendBatch(rows);
        ASSERT_TRUE(version.ok()) << version.status().ToString();
        record_committed(*version);
      }
      writer_exits();
    });
  }
  // Deleters own disjoint id pools among the initial rows. A pool id may
  // already have been window-evicted by an append commit — then the batch
  // fails NotFound as a whole, which is the all-or-nothing contract, not
  // an error of the test.
  for (int d = 0; d < kDeleters; ++d) {
    writers.emplace_back([&, d]() {
      const data::PointId begin =
          static_cast<data::PointId>(kInitialRows - 40 + 20 * d);
      for (data::PointId id = begin; id < begin + 20; ++id) {
        const std::vector<data::PointId> one = {id};
        auto version = service.DeleteRows(one);
        ASSERT_TRUE(version.ok() || version.status().IsNotFound())
            << version.status().ToString();
        if (version.ok()) record_committed(*version);
      }
      writer_exits();
    });
  }

  // Readers mix ids that stay live longest (freshly appended ones cannot
  // be addressed by a fixed list, so probe the delete pools and the oldest
  // rows — both may die mid-flight, which must yield NotFound, nothing
  // else).
  std::vector<std::vector<uint64_t>> observed(kReaders);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t]() {
      const std::vector<data::PointId> ids = {
          static_cast<data::PointId>(t),
          static_cast<data::PointId>(kInitialRows - 40 + 7 * t),
          static_cast<data::PointId>(kInitialRows - 1)};
      uint64_t last_seen = v0;
      while (!writers_done.load(std::memory_order_acquire)) {
        for (data::PointId id : ids) {
          auto result = service.Query(id);
          if (!result.ok()) {
            ASSERT_TRUE(result.status().IsNotFound())
                << result.status().ToString();
            continue;
          }
          ASSERT_GE(result->dataset_version, last_seen)
              << "version went backwards";
          last_seen = result->dataset_version;
          observed[t].push_back(result->dataset_version);
        }
      }
    });
  }

  for (std::thread& writer : writers) writer.join();
  for (std::thread& reader : readers) reader.join();
  service.WaitForRebuilds();

  // Every version a query reported is a committed window state.
  for (int t = 0; t < kReaders; ++t) {
    for (uint64_t version : observed[t]) {
      ASSERT_TRUE(committed.count(version) > 0)
          << "reader " << t << " observed version " << version
          << ", which no mutating call committed";
    }
  }

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.rows_ingested,
            static_cast<uint64_t>(kAppenders) * kBatchesPerAppender *
                kBatchRows);
  EXPECT_LE(stats.live_rows, config.ingest.window_max_rows);
  EXPECT_GT(stats.rows_evicted, 0u);
  EXPECT_GT(stats.rebuilds_completed, 0u);

  // The service still answers on a live row and reports the final state.
  bool answered = false;
  for (data::PointId id = 0;
       id < static_cast<data::PointId>(service.miner().dataset().size());
       ++id) {
    if (!service.miner().dataset().IsLive(id)) continue;
    auto result = service.Query(id);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->dataset_version, service.Stats().dataset_version);
    answered = true;
    break;
  }
  EXPECT_TRUE(answered);
}

}  // namespace
}  // namespace hos::service
