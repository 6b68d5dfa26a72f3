// E4: efficiency vs dimensionality d (the demo plan's efficiency axis 2).
// The lattice doubles with every added dimension; the experiment shows the
// exhaustive search blowing up as 2^d while the pruned searches grow far
// more slowly.

#include <memory>

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

constexpr size_t kN = 2000;
constexpr int kK = 5;

void Run() {
  bench::Banner("E4", "query cost vs dimensionality d (N=2000)");
  eval::Table table({"d", "lattice 2^d-1", "strategy", "time_ms", "OD evals",
                     "evaluated fraction"});

  for (int d : bench::SmokeSweep<int>({6, 8, 10, 12, 14})) {
    auto workload =
        bench::MakeWorkload(bench::SmokeSize(kN, 500), d, /*seed=*/d);
    const data::Dataset& ds = workload.dataset;
    const data::PointId query = workload.outliers[0].id;
    const uint64_t lattice_size = (uint64_t{1} << d) - 1;

    auto tree = index::XTree::BulkLoad(ds, knn::MetricKind::kL2);
    if (!tree.ok()) return;
    const index::XTree& engine = *tree;

    Rng rng(7);
    core::ThresholdOptions threshold_options;
    threshold_options.k = kK;
    auto threshold =
        core::EstimateThreshold(ds, engine, threshold_options, &rng);
    if (!threshold.ok()) return;

    learning::LearnerOptions learner_options;
    learner_options.sample_size = 10;
    learner_options.k = kK;
    learner_options.threshold = *threshold;
    auto report =
        learning::LearnPruningPriors(ds, engine, learner_options, &rng);

    std::vector<std::unique_ptr<search::SubspaceSearch>> strategies;
    strategies.push_back(std::make_unique<search::DynamicSubspaceSearch>(
        d, report.priors));
    strategies.push_back(std::make_unique<search::BottomUpSearch>(d));
    strategies.push_back(std::make_unique<search::TopDownSearch>(d));
    if (d <= 12) {  // exhaustive becomes pointless beyond this
      strategies.push_back(std::make_unique<search::ExhaustiveSearch>(d));
    }

    for (const auto& strategy : strategies) {
      search::OdEvaluator od(engine, ds.Row(query), kK, query);
      auto outcome = strategy->Run(&od, *threshold).value();
      table.AddRow(
          {std::to_string(d), std::to_string(lattice_size),
           std::string(strategy->name()),
           eval::FormatDouble(outcome.counters.elapsed_seconds * 1e3, 2),
           std::to_string(outcome.counters.od_evaluations),
           eval::FormatDouble(
               static_cast<double>(outcome.counters.od_evaluations) /
                   static_cast<double>(lattice_size),
               4)});
    }
  }
  table.Print();
  std::printf(
      "\nPaper shape: exhaustive cost doubles with every dimension; the\n"
      "TSF-guided dynamic search (and the pruned static orders) evaluate a\n"
      "shrinking fraction of the lattice as d grows.\n");
}

}  // namespace

int main(int argc, char** argv) {
  hos::bench::ConsumeSmokeFlag(&argc, argv);
  Run();
  return 0;
}
