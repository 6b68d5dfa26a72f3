#include "src/data/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace hos::data {
namespace {

double SquaredDistance(std::span<const double> a,
                       std::span<const double> b) {
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double diff = a[i] - b[i];
    acc += diff * diff;
  }
  return acc;
}

}  // namespace

Result<KMeansResult> KMeans(const Dataset& dataset,
                            const KMeansOptions& options, Rng* rng) {
  const size_t n = dataset.size();
  const int d = dataset.num_dims();
  const int k = options.num_clusters;
  if (k < 1) {
    return Status::InvalidArgument("num_clusters must be >= 1");
  }
  // Cluster the *live* rows only; tombstoned rows keep assignment -1. With
  // no tombstones `live` is the identity, and every loop and rng draw below
  // is exactly the pre-tombstone computation.
  const std::vector<PointId> live = dataset.LiveIds();
  const size_t m = live.size();
  if (m < static_cast<size_t>(k)) {
    return Status::InvalidArgument("fewer points than clusters");
  }

  KMeansResult result;
  result.centroids.reserve(k);

  // k-means++ seeding.
  std::vector<double> min_sq(m, std::numeric_limits<double>::max());
  {
    auto first = static_cast<size_t>(rng->UniformInt(0, m - 1));
    result.centroids.push_back(dataset.RowCopy(live[first]));
  }
  while (static_cast<int>(result.centroids.size()) < k) {
    const auto& last = result.centroids.back();
    double total = 0.0;
    for (size_t li = 0; li < m; ++li) {
      min_sq[li] =
          std::min(min_sq[li], SquaredDistance(dataset.Row(live[li]), last));
      total += min_sq[li];
    }
    double target = rng->Uniform(0.0, total);
    double acc = 0.0;
    size_t chosen = m - 1;
    for (size_t li = 0; li < m; ++li) {
      acc += min_sq[li];
      if (target <= acc) {
        chosen = li;
        break;
      }
    }
    result.centroids.push_back(dataset.RowCopy(live[chosen]));
  }

  result.assignment.assign(n, -1);
  std::vector<double> sums(static_cast<size_t>(k) * d);
  std::vector<size_t> counts(k);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    bool changed = false;
    // Assign.
    for (PointId i : live) {
      auto row = dataset.Row(i);
      int best = 0;
      double best_sq = SquaredDistance(row, result.centroids[0]);
      for (int c = 1; c < k; ++c) {
        double sq = SquaredDistance(row, result.centroids[c]);
        if (sq < best_sq) {
          best = c;
          best_sq = sq;
        }
      }
      if (result.assignment[i] != best) {
        result.assignment[i] = best;
        changed = true;
      }
    }
    if (!changed) break;
    // Update.
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), size_t{0});
    for (PointId i : live) {
      auto row = dataset.Row(i);
      int c = result.assignment[i];
      ++counts[c];
      for (int j = 0; j < d; ++j) sums[static_cast<size_t>(c) * d + j] += row[j];
    }
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster from the globally farthest point.
        PointId farthest = live.front();
        double farthest_sq = -1.0;
        for (PointId i : live) {
          double sq = SquaredDistance(dataset.Row(i),
                                      result.centroids[result.assignment[i]]);
          if (sq > farthest_sq) {
            farthest_sq = sq;
            farthest = i;
          }
        }
        result.centroids[c] = dataset.RowCopy(farthest);
        continue;
      }
      for (int j = 0; j < d; ++j) {
        result.centroids[c][j] =
            sums[static_cast<size_t>(c) * d + j] / counts[c];
      }
    }
  }

  result.inertia = 0.0;
  for (PointId i : live) {
    result.inertia += SquaredDistance(dataset.Row(i),
                                      result.centroids[result.assignment[i]]);
  }
  return result;
}

}  // namespace hos::data
