#include "src/core/threshold.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace hos::core {

Result<double> EstimateThreshold(const data::Dataset& dataset,
                                 const knn::KnnEngine& engine,
                                 const ThresholdOptions& options, Rng* rng) {
  if (dataset.live_size() == 0) {
    return Status::FailedPrecondition("cannot estimate T on empty dataset");
  }
  if (!(options.percentile > 0.0 && options.percentile <= 1.0)) {
    return Status::InvalidArgument("percentile must be in (0, 1]");
  }
  if (options.sample_size <= 0) {
    return Status::InvalidArgument("sample_size must be positive");
  }
  // Sample over the *live* rows, as the learner does: draw positions in the
  // live-id list. A tombstoned row's storage may already be reclaimed, and
  // its OD is no survivor's, so it must not enter T.
  const std::vector<data::PointId> live = dataset.LiveIds();
  const size_t sample_size = std::min<size_t>(
      static_cast<size_t>(options.sample_size), live.size());
  const Subspace full = Subspace::Full(dataset.num_dims());

  std::vector<double> od_values;
  od_values.reserve(sample_size);
  for (size_t idx : rng->SampleWithoutReplacement(live.size(), sample_size)) {
    const data::PointId id = live[idx];
    knn::KnnQuery query;
    query.point = dataset.Row(id);
    query.subspace = full;
    query.k = options.k;
    query.exclude = id;
    od_values.push_back(knn::OutlyingDegree(engine, query));
  }
  std::sort(od_values.begin(), od_values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(options.percentile * static_cast<double>(od_values.size())));
  rank = std::min(std::max<size_t>(rank, 1), od_values.size());
  const double threshold = od_values[rank - 1];
  // T = 0 makes OD >= T hold in every subspace of every point (identical
  // rows give exactly that), and so does T = +inf once every distance
  // overflows (finite coordinates near 1e200 square past a double's
  // range), so neither estimate is returned.
  if (!(threshold > 0.0) || !std::isfinite(threshold)) {
    return Status::FailedPrecondition(
        "estimated threshold is " + std::to_string(threshold) +
        " (the sampled full-space ODs must be positive and finite); set "
        "the threshold explicitly");
  }
  return threshold;
}

}  // namespace hos::core
