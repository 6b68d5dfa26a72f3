// E14 (ablation): exact pruning-based search vs a per-point genetic
// heuristic. The GA returns only true minimal outlying subspaces (it
// locally minimises every hit) but cannot certify completeness — this
// experiment measures what that costs, and what it saves.

#include "bench/bench_util.h"
#include "src/core/threshold.h"
#include "src/eval/metrics.h"
#include "src/eval/report.h"
#include "src/index/xtree.h"
#include "src/search/genetic_search.h"
#include "src/search/od_evaluator.h"
#include "src/search/subspace_search.h"

namespace {

using namespace hos;  // NOLINT

constexpr int kK = 5;

void Run() {
  bench::Banner("E14", "exact dynamic search vs genetic heuristic");
  eval::Table table({"d", "method", "OD evals", "answers", "recall vs exact"});

  for (int d : bench::SmokeSweep<int>({8, 10, 12})) {
    auto workload =
        bench::MakeWorkload(bench::SmokeSize(2000, 500), d, /*seed=*/14 + d);
    const data::Dataset& ds = workload.dataset;
    const data::PointId query = workload.outliers[0].id;
    auto tree = index::XTree::BulkLoad(ds, knn::MetricKind::kL2);
    if (!tree.ok()) return;
    const index::XTree& engine = *tree;

    Rng rng(14);
    core::ThresholdOptions threshold_options;
    threshold_options.k = kK;
    auto threshold =
        core::EstimateThreshold(ds, engine, threshold_options, &rng);
    if (!threshold.ok()) return;

    search::OdEvaluator exact_od(engine, ds.Row(query), kK, query);
    search::DynamicSubspaceSearch exact(d, lattice::PruningPriors::Flat(d));
    auto exact_outcome = exact.Run(&exact_od, *threshold).value();

    search::OdEvaluator ga_od(engine, ds.Row(query), kK, query);
    search::GeneticSubspaceSearch ga(d);
    Rng ga_rng(14);
    auto ga_answers = ga.Run(&ga_od, *threshold, &ga_rng);

    auto recall =
        eval::CompareSubspaceSets(ga_answers,
                                  exact_outcome.minimal_outlying_subspaces)
            .recall;
    table.AddRow({std::to_string(d), "dynamic (exact)",
                  std::to_string(exact_outcome.counters.od_evaluations),
                  std::to_string(
                      exact_outcome.minimal_outlying_subspaces.size()),
                  "1.000"});
    table.AddRow({std::to_string(d), "genetic (heuristic)",
                  std::to_string(ga_od.num_evaluations()),
                  std::to_string(ga_answers.size()),
                  eval::FormatDouble(recall, 3)});
  }
  table.Print();
  std::printf(
      "\nShape: the heuristic's answers are always sound (each is a true\n"
      "minimal outlying subspace) but its recall of the full minimal set\n"
      "is <= 1 and unpredictable, while the exact search certifies\n"
      "completeness — the monotonicity-based pruning is doing real work\n"
      "that randomised search cannot replicate at similar cost.\n");
}

}  // namespace

int main(int argc, char** argv) {
  hos::bench::ConsumeSmokeFlag(&argc, argv);
  Run();
  return 0;
}
