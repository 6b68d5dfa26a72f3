// KnnEngine: the abstract k-nearest-neighbour service consumed by the OD
// evaluator. src/ implements it once, LeafTableKnn (knn/leaf_table_knn.h):
// index::XTree (the paper's indexing module) is that engine over STR-packed
// leaves, and LinearScanKnn is it over a single leaf. An engine is bound to
// one dataset and one metric at construction.

#ifndef HOS_KNN_KNN_ENGINE_H_
#define HOS_KNN_KNN_ENGINE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/subspace.h"
#include "src/data/dataset.h"
#include "src/knn/metric.h"

namespace hos::knn {

/// One nearest-neighbour hit.
struct Neighbor {
  data::PointId id;
  double distance;

  bool operator==(const Neighbor&) const = default;
};

/// Parameters of a kNN query.
struct KnnQuery {
  /// The query point, in full dimensionality.
  std::span<const double> point;
  /// Subspace the distance is computed in.
  Subspace subspace;
  /// Number of neighbours requested.
  int k = 5;
  /// When set, this dataset point id is excluded from the result — used so
  /// a query point drawn from the dataset is not its own neighbour.
  std::optional<data::PointId> exclude;
};

/// One query point of a batched kNN call: the point and its optional
/// self-exclusion. Subspace and k are shared across the batch (the
/// co-scheduled lattice walks query one subspace for a block of points at
/// a time).
struct BatchPointQuery {
  std::span<const double> point;
  std::optional<data::PointId> exclude;
};

/// Uniform snapshot of a backend's internal work counters, so the metrics
/// layer can export every backend through one shape without knowing which
/// concrete index sits behind the KnnEngine. All counts are monotone over
/// the engine's lifetime (they reset only when the engine itself is
/// replaced, e.g. by an ingest rebuild — the serving layer folds the old
/// engine's totals so exported series stay monotone across swaps).
struct KnnBackendStats {
  /// Implementation name: "linear_scan" or "xtree".
  std::string backend;
  uint64_t distance_computations = 0;
  /// Leaves swept (the linear scan's one leaf counts too).
  uint64_t node_accesses = 0;
  /// Queries answered through the batched SIMD kernel over the SoA base.
  uint64_t kernel_scans = 0;
  /// Always 0: engines have no scalar scan path. Kept only because the
  /// benchmark harness still reads it.
  uint64_t scalar_scans = 0;
  /// Queries that merged appended delta rows into a base answer.
  uint64_t delta_merges = 0;
  /// Always 0: an engine's snapshot is never stale (an in-place overwrite
  /// after the build is asserted). Kept only because the benchmark
  /// harness still reads it.
  uint64_t stale_fallbacks = 0;
};

/// Abstract kNN service over a fixed dataset with a fixed metric.
class KnnEngine {
 public:
  virtual ~KnnEngine() = default;

  /// Returns up to k nearest neighbours ordered by ascending distance
  /// (ties broken by ascending id). Fewer than k when the dataset is small.
  virtual std::vector<Neighbor> Search(const KnnQuery& query) const = 0;

  /// All points within `radius` (inclusive) of the query in the subspace,
  /// ordered by ascending distance.
  virtual std::vector<Neighbor> RangeSearch(std::span<const double> point,
                                            const Subspace& subspace,
                                            double radius) const = 0;

  /// Number of points served.
  virtual size_t size() const = 0;

  /// Metric the engine was constructed with.
  virtual MetricKind metric() const = 0;

  /// Monotonically increasing count of point-to-point distance computations
  /// performed, for the efficiency experiments.
  virtual uint64_t distance_computations() const = 0;

  /// Work-counter snapshot for the metrics exporter. The base returns just
  /// the distance count under backend "unknown"; concrete engines override
  /// with their name and index-specific tallies.
  virtual KnnBackendStats backend_stats() const;

  /// Batched kNN: one answer per query point, all in the same subspace with
  /// the same k. results[i] is exactly Search({points[i], subspace, k,
  /// excludes[i]}). This base loop is the batch path of every engine in
  /// src/; it stays virtual so a wrapper (e2ebench's TimingKnn) can time
  /// the batch as a whole.
  virtual std::vector<std::vector<Neighbor>> SearchBatch(
      std::span<const BatchPointQuery> points, const Subspace& subspace,
      int k) const;
};

/// OD(p, s) = sum of distances to the k nearest neighbours of p in s
/// (paper §2). The core measure of the whole system.
double OutlyingDegree(const KnnEngine& engine, const KnnQuery& query);

/// Batched OD: results[i] = OutlyingDegree of points[i] in `subspace`,
/// bitwise identical to the per-point calls (each point's neighbour
/// distances are the same doubles summed in the same ascending
/// (distance, id) order), answered through SearchBatch.
std::vector<double> OutlyingDegreeBatch(const KnnEngine& engine,
                                        std::span<const BatchPointQuery> points,
                                        const Subspace& subspace, int k);

}  // namespace hos::knn

#endif  // HOS_KNN_KNN_ENGINE_H_
