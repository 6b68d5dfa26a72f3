// E9: sensitivity to the OD parameters — the neighbour count k and the
// distance threshold T ("wide spectrum of settings", parameter axes).

#include "bench/bench_util.h"
#include "src/core/threshold.h"
#include "src/eval/report.h"
#include "src/index/xtree.h"
#include "src/learning/learner.h"
#include "src/search/od_evaluator.h"
#include "src/search/subspace_search.h"

namespace {

using namespace hos;  // NOLINT

constexpr int kDims = 10;

void SweepK(const data::Dataset& ds, const index::XTree& engine,
            data::PointId query) {
  std::printf("\n-- E9a: vary k (T = auto 95th percentile per k) --\n");
  eval::Table table(
      {"k", "T", "time_ms", "OD evals", "minimal subspaces"});
  for (int k : bench::SmokeSweep<int>({1, 3, 5, 10, 20})) {
    Rng rng(9);
    core::ThresholdOptions threshold_options;
    threshold_options.k = k;
    auto threshold =
        core::EstimateThreshold(ds, engine, threshold_options, &rng);
    if (!threshold.ok()) return;
    learning::LearnerOptions learner_options;
    learner_options.sample_size = 10;
    learner_options.k = k;
    learner_options.threshold = *threshold;
    auto report =
        learning::LearnPruningPriors(ds, engine, learner_options, &rng);
    search::DynamicSubspaceSearch strategy(kDims, report.priors);
    search::OdEvaluator od(engine, ds.Row(query), k, query);
    auto outcome = strategy.Run(&od, *threshold).value();
    table.AddRow(
        {std::to_string(k), eval::FormatDouble(*threshold, 3),
         eval::FormatDouble(outcome.counters.elapsed_seconds * 1e3, 2),
         std::to_string(outcome.counters.od_evaluations),
         std::to_string(outcome.minimal_outlying_subspaces.size())});
  }
  table.Print();
}

void SweepT(const data::Dataset& ds, const index::XTree& engine,
            data::PointId query) {
  std::printf("\n-- E9b: vary T around the auto estimate (k = 5) --\n");
  constexpr int kK = 5;
  Rng rng(9);
  core::ThresholdOptions threshold_options;
  threshold_options.k = kK;
  auto base = core::EstimateThreshold(ds, engine, threshold_options, &rng);
  if (!base.ok()) return;

  eval::Table table({"T / T_auto", "T", "OD evals", "pruned up",
                     "pruned down", "outlying total", "minimal"});
  for (double factor :
       bench::SmokeSweep<double>({0.25, 0.5, 0.75, 1.0, 1.25, 2.0})) {
    const double threshold = *base * factor;
    learning::LearnerOptions learner_options;
    learner_options.sample_size = 10;
    learner_options.k = kK;
    learner_options.threshold = threshold;
    Rng learn_rng(9);
    auto report =
        learning::LearnPruningPriors(ds, engine, learner_options, &learn_rng);
    search::DynamicSubspaceSearch strategy(kDims, report.priors);
    search::OdEvaluator od(engine, ds.Row(query), kK, query);
    auto outcome = strategy.Run(&od, threshold).value();
    table.AddRow({eval::FormatDouble(factor, 2),
                  eval::FormatDouble(threshold, 3),
                  std::to_string(outcome.counters.od_evaluations),
                  std::to_string(outcome.counters.pruned_upward),
                  std::to_string(outcome.counters.pruned_downward),
                  std::to_string(outcome.TotalOutlyingCount()),
                  std::to_string(outcome.minimal_outlying_subspaces.size())});
  }
  table.Print();
  std::printf(
      "\nPaper shape: small T -> everything outlying, upward pruning does\n"
      "the work; large T -> nothing outlying, downward pruning does the\n"
      "work; the search is cheapest at the extremes and most expensive\n"
      "near the boundary threshold.\n");
}

void Run() {
  bench::Banner("E9", "parameter sensitivity: k and T (d=10, N=3000)");
  auto workload =
      bench::MakeWorkload(bench::SmokeSize(3000, 600), kDims, /*seed=*/9);
  const data::Dataset& ds = workload.dataset;
  auto tree = index::XTree::BulkLoad(ds, knn::MetricKind::kL2);
  if (!tree.ok()) return;
  const index::XTree& engine = *tree;
  const data::PointId query = workload.outliers[0].id;
  SweepK(ds, engine, query);
  SweepT(ds, engine, query);
}

}  // namespace

int main(int argc, char** argv) {
  hos::bench::ConsumeSmokeFlag(&argc, argv);
  Run();
  return 0;
}
