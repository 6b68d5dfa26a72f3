// Distance-threshold selection. The paper treats T as a user parameter; in
// practice a data-driven default is needed, so we estimate T from the
// distribution of full-space OD values: by monotonicity (paper §2) the
// full-space OD is every point's maximum over all subspaces, so the chosen
// percentile bounds the fraction of data points that can be an outlier in
// *any* subspace.

#ifndef HOS_CORE_THRESHOLD_H_
#define HOS_CORE_THRESHOLD_H_

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/data/dataset.h"
#include "src/knn/knn_engine.h"

namespace hos::core {

struct ThresholdOptions {
  /// OD percentile (in (0,1]) taken as T; e.g. 0.95 makes ~5% of sampled
  /// points full-space outliers.
  double percentile = 0.95;
  /// Number of live points whose full-space OD is computed; capped at the
  /// live count. More samples → more stable estimate.
  int sample_size = 200;
  int k = 5;
};

/// Estimates T by sampling the full-space OD values of live rows and taking
/// the percentile. FailedPrecondition when no row is live or the estimate
/// is not positive.
Result<double> EstimateThreshold(const data::Dataset& dataset,
                                 const knn::KnnEngine& engine,
                                 const ThresholdOptions& options, Rng* rng);

}  // namespace hos::core

#endif  // HOS_CORE_THRESHOLD_H_
