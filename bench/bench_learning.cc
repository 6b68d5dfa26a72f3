// E6: effect of the learning sample size S (paper §3.2) — the one-off
// learning cost and the per-query work of the dynamic search under the
// resulting priors. S=0 means flat priors (no learning).

#include "bench/bench_util.h"
#include "src/common/timer.h"
#include "src/core/threshold.h"
#include "src/eval/report.h"
#include "src/index/xtree.h"
#include "src/learning/learner.h"
#include "src/search/od_evaluator.h"
#include "src/search/subspace_search.h"

namespace {

using namespace hos;  // NOLINT

constexpr int kDims = 12;
constexpr int kK = 5;
int NumQueries() { return static_cast<int>(bench::SmokeSize(10, 4)); }

void Run() {
  bench::Banner("E6", "learning sample size S vs query cost (d=12)");
  auto workload =
      bench::MakeWorkload(bench::SmokeSize(3000, 600), kDims, /*seed=*/6);
  const data::Dataset& ds = workload.dataset;

  auto tree = index::XTree::BulkLoad(ds, knn::MetricKind::kL2);
  if (!tree.ok()) return;
  const index::XTree& engine = *tree;

  Rng rng(6);
  core::ThresholdOptions threshold_options;
  threshold_options.k = kK;
  auto threshold =
      core::EstimateThreshold(ds, engine, threshold_options, &rng);
  if (!threshold.ok()) return;

  // Query mix: the planted outliers plus random background points.
  std::vector<data::PointId> queries;
  for (const auto& planted : workload.outliers) queries.push_back(planted.id);
  Rng query_rng(99);
  while (queries.size() < static_cast<size_t>(NumQueries())) {
    queries.push_back(
        static_cast<data::PointId>(query_rng.UniformInt(0, ds.size() - 1)));
  }

  eval::Table table({"S", "learn_ms", "learn OD evals",
                     "avg query OD evals", "avg query ms"});
  for (int sample_size : bench::SmokeSweep<int>({0, 5, 10, 20, 40})) {
    Rng learn_rng(6);
    learning::LearnerOptions learner_options;
    learner_options.sample_size = sample_size;
    learner_options.k = kK;
    learner_options.threshold = *threshold;
    Timer learn_timer;
    auto report =
        learning::LearnPruningPriors(ds, engine, learner_options, &learn_rng);
    double learn_ms = learn_timer.ElapsedMillis();

    search::DynamicSubspaceSearch strategy(kDims, report.priors);
    uint64_t total_evals = 0;
    double total_ms = 0.0;
    for (data::PointId q : queries) {
      search::OdEvaluator od(engine, ds.Row(q), kK, q);
      auto outcome = strategy.Run(&od, *threshold).value();
      total_evals += outcome.counters.od_evaluations;
      total_ms += outcome.counters.elapsed_seconds * 1e3;
    }
    table.AddRow(
        {std::to_string(sample_size), eval::FormatDouble(learn_ms, 1),
         std::to_string(report.total_counters.od_evaluations),
         eval::FormatDouble(
             static_cast<double>(total_evals) / queries.size(), 1),
         eval::FormatDouble(total_ms / queries.size(), 2)});
  }
  table.Print();
  std::printf(
      "\nPaper shape: learning is a one-off cost roughly linear in S, and\n"
      "the averaged priors stabilise after a handful of samples (S>=5 rows\n"
      "are identical). On workloads where the flat priors already pick the\n"
      "profitable end of the lattice the learned order is merely\n"
      "comparable — the guarantee is adaptivity, not strict improvement\n"
      "(see E11 for a case where the static orders lose badly).\n");
}

}  // namespace

int main(int argc, char** argv) {
  hos::bench::ConsumeSmokeFlag(&argc, argv);
  Run();
  return 0;
}
