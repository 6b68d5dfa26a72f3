// Sampling-based learning (paper §3.2): before query points are served,
// run the dynamic subspace search on S randomly sampled data points with
// flat priors (p_up = p_down = 0.5 away from the boundary levels), observe
// for each level m the fraction of m-dimensional subspaces that turned out
// outlying, and average those fractions over the samples. The averages
// become the p_up(m) / p_down(m) priors used in the TSF of every later
// query search.

#ifndef HOS_LEARNING_LEARNER_H_
#define HOS_LEARNING_LEARNER_H_

#include <vector>

#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/knn/knn_engine.h"
#include "src/lattice/saving_factors.h"
#include "src/search/search_result.h"

namespace hos::learning {

/// Everything the learning phase produced.
struct LearningReport {
  lattice::PruningPriors priors;
  /// The sampled point ids, in sampling order.
  std::vector<data::PointId> sample_ids;
  /// Average per-level outlier fraction across samples (index by m; this is
  /// the paper's averaged p_up before the boundary overrides).
  std::vector<double> mean_outlier_fraction;
  /// Aggregate work across the S sample searches.
  search::SearchCounters total_counters;
};

struct LearnerOptions {
  /// Number of sample points S. 0 disables learning (flat priors). In the
  /// high-d regime (d > lattice::kDenseMaxDims) each sample costs a full
  /// sparse lattice search — keep S small, or 0 unless the data prunes
  /// aggressively.
  int sample_size = 20;
  /// k of the OD measure.
  int k = 5;
  /// Outlier threshold T.
  double threshold = 1.0;
};

/// Runs the §3.2 learning process on `dataset` through `engine`.
/// Sampling is without replacement (capped at the dataset size).
LearningReport LearnPruningPriors(const data::Dataset& dataset,
                                  const knn::KnnEngine& engine,
                                  const LearnerOptions& options, Rng* rng);

}  // namespace hos::learning

#endif  // HOS_LEARNING_LEARNER_H_
