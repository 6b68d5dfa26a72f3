// Lloyd's k-means, for data profiling.

#ifndef HOS_DATA_KMEANS_H_
#define HOS_DATA_KMEANS_H_

#include <vector>

#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/data/dataset.h"

namespace hos::data {

struct KMeansOptions {
  int num_clusters = 8;
  int max_iterations = 50;
  /// Converged when no assignment changes between iterations.
};

struct KMeansResult {
  /// num_clusters x d centroids (row per cluster).
  std::vector<std::vector<double>> centroids;
  /// Cluster index per dataset point.
  std::vector<int> assignment;
  /// Iterations actually performed.
  int iterations = 0;
  /// Sum of squared distances of points to their centroids.
  double inertia = 0.0;
};

/// Runs Lloyd's algorithm with k-means++ style seeding (first centre
/// uniform, subsequent centres weighted by squared distance). Empty
/// clusters are re-seeded from the farthest point.
Result<KMeansResult> KMeans(const Dataset& dataset,
                            const KMeansOptions& options, Rng* rng);

}  // namespace hos::data

#endif  // HOS_DATA_KMEANS_H_
