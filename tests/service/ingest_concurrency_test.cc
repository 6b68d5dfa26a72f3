// Concurrency test for the streaming-ingest path (runs in CI under
// ThreadSanitizer via the "service" / "ingest" labels): one writer thread
// drives AppendBatch — crossing the rebuild-policy threshold repeatedly so
// background rebuilds commit mid-flight — while the query pool serves
// QueryBatch. The epoch-lock contract under test:
//
//  * every result's reported dataset_version corresponds to a dataset
//    state that actually existed — appends commit whole batches, so the
//    only versions ever observable are v0 + i * batch_size;
//  * versions observed by one thread issuing queries sequentially never
//    go backwards;
//  * a query issued after AppendBatch returns sees at least that batch's
//    version (its rows included in kNN results, its version reported).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "src/data/generator.h"
#include "src/service/query_service.h"

namespace hos::service {
namespace {

constexpr int kDims = 5;
constexpr size_t kInitialRows = 120;
constexpr size_t kBatchRows = 8;
constexpr int kBatches = 24;

core::HosMiner BuildMiner(uint64_t seed) {
  Rng rng(seed);
  data::Dataset dataset = data::GenerateUniform(kInitialRows, kDims, &rng);
  core::HosMinerConfig config;
  config.k = 3;
  config.threshold = 0.8;
  config.normalization = data::NormalizationKind::kNone;
  config.sample_size = 0;
  config.index = core::IndexKind::kXTree;
  auto miner = core::HosMiner::Build(std::move(dataset), config);
  EXPECT_TRUE(miner.ok()) << miner.status().ToString();
  return std::move(miner).value();
}

TEST(IngestConcurrencyTest, AppendWhileServingReportsConsistentVersions) {
  QueryServiceConfig config;
  config.num_threads = 4;
  // Aggressive rebuild policy so several background rebuilds commit while
  // queries are in flight.
  config.ingest.min_delta_rows = kBatchRows;
  config.ingest.rebuild_delta_fraction = 0.05;
  QueryService service(BuildMiner(21), config);
  const uint64_t v0 = service.Stats().dataset_version;

  Rng row_rng(77);
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> last_committed{v0};

  std::thread writer([&]() {
    for (int b = 0; b < kBatches; ++b) {
      std::vector<std::vector<double>> rows(kBatchRows,
                                            std::vector<double>(kDims));
      for (auto& row : rows) {
        for (double& cell : row) cell = row_rng.Uniform();
      }
      auto version = service.AppendBatch(rows);
      ASSERT_TRUE(version.ok()) << version.status().ToString();
      // Batches commit atomically and in order.
      EXPECT_EQ(*version, v0 + (static_cast<uint64_t>(b) + 1) * kBatchRows);
      last_committed.store(*version, std::memory_order_release);
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t]() {
      uint64_t last_seen = v0;
      std::vector<data::PointId> ids = {0, 5, static_cast<data::PointId>(
                                                  10 + t)};
      while (!writer_done.load(std::memory_order_acquire)) {
        const uint64_t floor =
            last_committed.load(std::memory_order_acquire);
        auto results = service.QueryBatch(ids);
        ASSERT_TRUE(results.ok()) << results.status().ToString();
        for (const core::QueryResult& result : *results) {
          // Only whole-batch versions can exist.
          ASSERT_EQ((result.dataset_version - v0) % kBatchRows, 0u)
              << "version " << result.dataset_version
              << " corresponds to no committed dataset state";
          ASSERT_LE(result.dataset_version,
                    v0 + static_cast<uint64_t>(kBatches) * kBatchRows);
          // Queries issued after a commit observed must not report an
          // older state than the last version this thread already saw.
          ASSERT_GE(result.dataset_version, last_seen)
              << "version went backwards";
          ASSERT_GE(result.dataset_version, floor)
              << "query started after commit " << floor
              << " but reported an older state";
          last_seen = result.dataset_version;
        }
      }
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();
  service.WaitForRebuilds();

  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.rows_ingested, kBatchRows * kBatches);
  EXPECT_EQ(stats.append_batches, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.dataset_version,
            v0 + static_cast<uint64_t>(kBatches) * kBatchRows);
  EXPECT_GT(stats.rebuilds_completed, 0u);

  // After the dust settles, the service still answers and reports the
  // final version, with every appended row in the dataset.
  auto final_result = service.Query(0);
  ASSERT_TRUE(final_result.ok());
  EXPECT_EQ(final_result->dataset_version, stats.dataset_version);
  EXPECT_EQ(service.miner().dataset().size(),
            kInitialRows + kBatchRows * kBatches);
}

}  // namespace
}  // namespace hos::service
