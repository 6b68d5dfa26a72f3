#include "src/learning/learner.h"

#include <algorithm>

#include "src/lattice/lattice_store.h"
#include "src/search/od_evaluator.h"
#include "src/search/subspace_search.h"

namespace hos::learning {

LearningReport LearnPruningPriors(const data::Dataset& dataset,
                                  const knn::KnnEngine& engine,
                                  const LearnerOptions& options, Rng* rng) {
  const int d = dataset.num_dims();
  LearningReport report;
  report.priors = lattice::PruningPriors::Flat(d);
  report.mean_outlier_fraction.assign(d + 1, 0.0);

  // Sample over the *live* rows: draw positions in the live-id list, then
  // map them back to dataset ids. With no tombstones the list is the
  // identity, so the rng draws and chosen ids are exactly the
  // pre-tombstone computation.
  const std::vector<data::PointId> live = dataset.LiveIds();
  const size_t sample_size = std::min<size_t>(
      static_cast<size_t>(std::max(options.sample_size, 0)), live.size());
  // With d outside 1..kMaxLatticeDims no lattice search is possible: flat
  // priors, unsampled.
  if (sample_size == 0 || d < 1 || d > lattice::kMaxLatticeDims) {
    return report;
  }

  for (size_t idx : rng->SampleWithoutReplacement(live.size(), sample_size)) {
    report.sample_ids.push_back(live[idx]);
  }

  // Sample points are searched with the flat §3.2 priors.
  search::DynamicSubspaceSearch sample_search(d,
                                              lattice::PruningPriors::Flat(d));
  for (data::PointId id : report.sample_ids) {
    auto point = dataset.Row(id);
    search::OdEvaluator od(engine, point, options.k, id);
    // Flat priors over d dims always match the search and d is in range
    // (checked above), so Run cannot fail.
    search::SearchOutcome outcome =
        sample_search.Run(&od, options.threshold).value();
    for (int m = 1; m <= d; ++m) {
      report.mean_outlier_fraction[m] += outcome.outlier_fraction[m];
    }
    report.total_counters.od_evaluations += outcome.counters.od_evaluations;
    report.total_counters.pruned_upward += outcome.counters.pruned_upward;
    report.total_counters.pruned_downward +=
        outcome.counters.pruned_downward;
    report.total_counters.distance_computations +=
        outcome.counters.distance_computations;
    report.total_counters.elapsed_seconds += outcome.counters.elapsed_seconds;
    report.total_counters.steps += outcome.counters.steps;
  }
  for (int m = 1; m <= d; ++m) {
    report.mean_outlier_fraction[m] /= static_cast<double>(sample_size);
  }

  // Averaged priors (paper §3.2): p_up(m) is the mean outlying fraction,
  // p_down(m) its complement, with the boundary overrides
  // p_down(1) = p_up(d) = 0.
  for (int m = 1; m <= d; ++m) {
    report.priors.up[m] = report.mean_outlier_fraction[m];
    report.priors.down[m] = 1.0 - report.mean_outlier_fraction[m];
  }
  report.priors.down[1] = 0.0;
  report.priors.up[d] = 0.0;
  return report;
}

}  // namespace hos::learning
