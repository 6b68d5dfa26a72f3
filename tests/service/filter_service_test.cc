// The pre-filter's serving-layer wiring: QueryServiceConfig::filter_mode
// reaches every query, a conservative service answers exactly like an
// unfiltered one, and the filter observability surface
// (service_filter_bound_decisions / service_filter_risky_decisions /
// service_last_bound_gap) fills from the per-query counters.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/data/generator.h"
#include "src/service/query_service.h"

namespace hos::service {
namespace {

constexpr int kDims = 5;

core::HosMiner BuildMiner() {
  Rng rng(33);
  data::Dataset dataset = data::GenerateUniform(60, kDims, &rng);
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

std::vector<uint64_t> AnswerMasks(const core::QueryResult& result) {
  std::vector<uint64_t> masks;
  for (const Subspace& s : result.outlying_subspaces()) {
    masks.push_back(s.mask());
  }
  return masks;
}

TEST(FilterServiceTest, ConservativeServiceAnswersExactlyAndCountsDecisions) {
  QueryServiceConfig off_config;
  off_config.num_threads = 2;
  QueryService off_service(BuildMiner(), off_config);

  QueryServiceConfig cons_config;
  cons_config.num_threads = 2;
  cons_config.filter_mode = filter::FilterMode::kConservative;
  QueryService cons_service(BuildMiner(), cons_config);

  for (data::PointId id = 0; id < 24; ++id) {
    auto off = off_service.Query(id);
    auto cons = cons_service.Query(id);
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    ASSERT_TRUE(cons.ok()) << cons.status().ToString();
    EXPECT_EQ(AnswerMasks(*cons), AnswerMasks(*off)) << "id " << id;
  }

  const ServiceStatsSnapshot off_stats = off_service.Stats();
  EXPECT_EQ(off_stats.filter_bound_decisions, 0u);
  EXPECT_EQ(off_stats.filter_risky_decisions, 0u);
  EXPECT_EQ(off_stats.last_bound_gap, 0.0);

  const ServiceStatsSnapshot cons_stats = cons_service.Stats();
  // The filter fired (the config knob reached the search), but took no
  // risks and never wrote the gap gauge.
  EXPECT_GT(cons_stats.filter_bound_decisions, 0u);
  EXPECT_EQ(cons_stats.filter_risky_decisions, 0u);
  EXPECT_EQ(cons_stats.last_bound_gap, 0.0);
  // The sum identity, aggregated: filtered exact work + decisions ==
  // unfiltered exact work over the identical query stream.
  EXPECT_EQ(cons_stats.od_evaluations + cons_stats.filter_bound_decisions,
            off_stats.od_evaluations);

  // The same tallies are registry series in the metrics export.
  const std::string json = cons_service.MetricsJson();
  for (const std::string& series : {
           "\"name\": \"service_filter_bound_decisions\", \"type\": "
           "\"counter\", \"value\": " +
               std::to_string(cons_stats.filter_bound_decisions) + "}",
           std::string("\"name\": \"service_filter_risky_decisions\", "
                       "\"type\": \"counter\", \"value\": 0}"),
           std::string("\"name\": \"service_last_bound_gap\", \"type\": "
                       "\"gauge\", \"value\": 0}"),
       }) {
    EXPECT_NE(json.find(series), std::string::npos) << series << "\n" << json;
  }
}

TEST(FilterServiceTest, SpeculativeServiceReportsItsRisk) {
  QueryServiceConfig config;
  config.num_threads = 2;
  config.filter_mode = filter::FilterMode::kSpeculative;
  QueryService service(BuildMiner(), config);

  uint64_t risky = 0;
  for (data::PointId id = 0; id < 24; ++id) {
    auto result = service.Query(id);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    risky += result->outcome.counters.risky_decisions;
  }
  const ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.filter_risky_decisions, risky);
  // The gauge is written iff some query actually took a risk.
  EXPECT_EQ(stats.last_bound_gap > 0.0, risky > 0);
}

}  // namespace
}  // namespace hos::service
