// E3: efficiency vs dataset size N (the demo plan's "wide spectrum of
// settings", efficiency axis 1). For each N we run one planted-outlier
// query with every search strategy and report wall time, OD evaluations and
// point-distance computations; the evolutionary baseline's whole-dataset
// search time is shown for scale.

#include <memory>

#include "bench/bench_util.h"
#include "src/baseline/evolutionary.h"
#include "src/common/timer.h"
#include "src/core/threshold.h"
#include "src/eval/report.h"
#include "src/index/xtree.h"
#include "src/learning/learner.h"
#include "src/search/od_evaluator.h"
#include "src/search/subspace_search.h"

namespace {

using namespace hos;  // NOLINT

constexpr int kDims = 10;
constexpr int kK = 5;

void Run() {
  bench::Banner("E3", "query cost vs dataset size N (d=10)");
  eval::Table table({"N", "strategy", "time_ms", "OD evals", "dist comps",
                     "minimal subspaces"});

  for (size_t n : bench::SmokeSweep<size_t>({1000, 2000, 5000, 10000})) {
    auto workload = bench::MakeWorkload(bench::SmokeSize(n, 600), kDims,
                                        /*seed=*/n);
    const data::Dataset& ds = workload.dataset;
    const data::PointId query = workload.outliers[0].id;

    auto tree = index::XTree::BulkLoad(ds, knn::MetricKind::kL2);
    if (!tree.ok()) return;
    const index::XTree& engine = *tree;

    Rng rng(7);
    core::ThresholdOptions threshold_options;
    threshold_options.k = kK;
    auto threshold = core::EstimateThreshold(ds, engine, threshold_options,
                                             &rng);
    if (!threshold.ok()) return;

    learning::LearnerOptions learner_options;
    learner_options.sample_size = 10;
    learner_options.k = kK;
    learner_options.threshold = *threshold;
    auto report = learning::LearnPruningPriors(ds, engine, learner_options,
                                               &rng);

    std::vector<std::unique_ptr<search::SubspaceSearch>> strategies;
    strategies.push_back(std::make_unique<search::DynamicSubspaceSearch>(
        kDims, report.priors));
    strategies.push_back(std::make_unique<search::BottomUpSearch>(kDims));
    strategies.push_back(std::make_unique<search::TopDownSearch>(kDims));
    strategies.push_back(std::make_unique<search::ExhaustiveSearch>(kDims));

    for (const auto& strategy : strategies) {
      // Fresh evaluator per strategy: every strategy pays its own kNN cost.
      search::OdEvaluator od(engine, ds.Row(query), kK, query);
      auto outcome = strategy->Run(&od, *threshold).value();
      table.AddRow(
          {std::to_string(n), std::string(strategy->name()),
           eval::FormatDouble(outcome.counters.elapsed_seconds * 1e3, 2),
           std::to_string(outcome.counters.od_evaluations),
           std::to_string(outcome.counters.distance_computations),
           std::to_string(outcome.minimal_outlying_subspaces.size())});
    }

    // Evolutionary baseline: one whole-dataset GA run (amortised over all
    // points, unlike the per-point searches above).
    baseline::EvolutionaryOptions evo_options;
    evo_options.target_dims = 2;
    evo_options.population_size = 50;
    evo_options.max_generations = 30;
    auto evo = baseline::EvolutionaryOutlierSearch::Create(ds, evo_options);
    if (evo.ok()) {
      Rng evo_rng(7);
      Timer timer;
      auto projections = evo->Run(&evo_rng);
      table.AddRow({std::to_string(n), "evolutionary[1] (whole dataset)",
                    eval::FormatDouble(timer.ElapsedMillis(), 2),
                    std::to_string(evo->fitness_evaluations()), "-",
                    std::to_string(projections.size())});
    }
  }
  table.Print();
  std::printf(
      "\nPaper shape: per-query time grows mildly with N (kNN cost); the\n"
      "dynamic search evaluates a small, N-independent fraction of the\n"
      "2^d-1 = %d subspaces, while exhaustive always evaluates all.\n",
      (1 << kDims) - 1);
}

}  // namespace

int main(int argc, char** argv) {
  hos::bench::ConsumeSmokeFlag(&argc, argv);
  Run();
  return 0;
}
