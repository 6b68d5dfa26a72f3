// X-tree (Berchtold, Keim, Kriegel — VLDB'96): an R*-tree variant for
// high-dimensional data that avoids the overlap explosion of directory
// splits by introducing *supernodes* — directory nodes of extended capacity
// that are kept unsplit whenever every possible split would produce heavily
// overlapping halves.
//
// This is the paper's indexing module (Fig. 2, "X-tree Indexing"): the tree
// indexes the full-dimensional dataset once, and answers exact kNN queries
// in *any* subspace, because an MBR min-distance restricted to the
// subspace's dimensions remains a valid lower bound.
//
// Implementation notes (documented deviations from the original papers):
//  * Splits use the R*-tree topological split (minimum-margin axis, then
//    minimum-overlap distribution). The X-tree's overlap-minimal split is
//    approximated by a balanced median split searched over all axes rather
//    than by a split-history tree; when no axis yields overlap below
//    `max_overlap_ratio`, the node becomes (or grows as) a supernode.
//  * R*-style forced reinsertion is not implemented.
//  * Supernodes apply to directory nodes; leaves always split.

#ifndef HOS_INDEX_XTREE_H_
#define HOS_INDEX_XTREE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/atomic_counter.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/common/subspace.h"
#include "src/data/dataset.h"
#include "src/index/mbr.h"
#include "src/kernels/dataset_view.h"
#include "src/knn/knn_engine.h"
#include "src/knn/metric.h"

namespace hos::index {

/// Structural parameters of the tree.
struct XTreeConfig {
  /// Base node capacity M (both leaf and directory).
  int max_entries = 32;
  /// Minimum fill fraction after a split (R*: 40%).
  double min_fill = 0.4;
  /// Directory split is rejected (→ supernode) when the two halves overlap
  /// by more than this Jaccard ratio. The X-tree paper's MAX_OVERLAP = 20%.
  double max_overlap_ratio = 0.2;
  /// Safety cap: a supernode may grow to at most this multiple of
  /// max_entries before a split is forced regardless of overlap.
  int max_supernode_factor = 64;
  /// Target fill fraction of nodes produced by BulkLoad.
  double bulk_fill = 0.8;
};

/// Aggregate shape statistics, for tests and the index benchmarks.
struct XTreeStats {
  size_t num_points = 0;
  size_t num_leaves = 0;
  size_t num_directory_nodes = 0;
  size_t num_supernodes = 0;
  int largest_supernode_factor = 1;
  int height = 0;  ///< 1 = root is a leaf
};

/// The index. Bound to a Dataset (not owned) whose rows provide the point
/// coordinates; the tree stores point ids and boxes, plus a SoA snapshot of
/// the rows laid out leaf by leaf (kernels::DatasetView::BuildInOrder), so
/// each leaf scan is one contiguous kernel sweep.
class XTree {
 public:
  /// Empty tree over `dataset`'s dimensionality. Points are added with
  /// Insert; the dataset must outlive the tree.
  XTree(const data::Dataset& dataset, knn::MetricKind metric,
        XTreeConfig config = {});
  ~XTree();

  XTree(XTree&&) noexcept;
  XTree& operator=(XTree&&) noexcept;

  /// Inserts one dataset row by id.
  Status Insert(data::PointId id);

  /// Removes a previously inserted point (R-tree condense-tree: underfull
  /// nodes are dissolved and their surviving points reinserted; the root is
  /// shrunk when it degenerates). NotFound if the id is not in the tree.
  Status Remove(data::PointId id);

  /// Builds by repeated insertion over all current dataset rows.
  static Result<XTree> BuildByInsertion(const data::Dataset& dataset,
                                        knn::MetricKind metric,
                                        XTreeConfig config = {});

  /// Sort-Tile-Recursive bulk load over all current dataset rows — much
  /// faster than repeated insertion and produces a well-packed tree.
  static Result<XTree> BulkLoad(const data::Dataset& dataset,
                                knn::MetricKind metric,
                                XTreeConfig config = {});

  /// Re-snapshots the rows leaf by leaf (depth-first leaf order, then the
  /// rows the tree does not hold) and records each leaf's position range.
  /// The Build factories call this; Insert/Remove invalidate the snapshot
  /// (queries then fall back to the scalar metric path), so call it again
  /// after a batch of hand-driven mutations to restore the kernel path.
  /// Not thread-safe with concurrent queries, like any tree mutation.
  void RefreshKernelView();

  /// Streaming-ingest rebuild: re-bulk-loads the tree over all current
  /// dataset rows and re-snapshots them, folding the append delta back
  /// into the index. Query counters survive the rebuild. Not thread-safe
  /// with concurrent queries.
  Status Rebuild();

  /// Rows covered by the tree itself; rows appended after the tree was
  /// (re)built — [base_rows(), dataset.size()) — are the delta, which Knn
  /// and RangeSearch merge in exactly via a scalar scan.
  size_t base_rows() const { return base_rows_; }

  /// Queries that fell back to scalar leaf scans although a snapshot was
  /// attached (in-place overwrite since the snapshot was taken).
  uint64_t stale_fallbacks() const { return stale_fallbacks_; }

  /// Exact k nearest neighbours in `query.subspace`: nodes are visited in
  /// ascending MBR min-distance and their points collected into a top-k
  /// collector, stopping at the first node strictly beyond its k-th
  /// distance — so the visited nodes are exactly those with min-distance
  /// <= the k-th neighbour distance. Ordering matches LinearScanKnn:
  /// ascending (distance, id).
  std::vector<knn::Neighbor> Knn(const knn::KnnQuery& query) const;

  /// All points within `radius` (inclusive), ascending (distance, id).
  std::vector<knn::Neighbor> RangeSearch(std::span<const double> point,
                                         const Subspace& subspace,
                                         double radius) const;

  size_t size() const { return num_points_; }
  knn::MetricKind metric() const { return metric_; }
  const XTreeConfig& config() const { return config_; }

  /// Point-to-point distance computations performed by queries so far.
  uint64_t distance_computations() const { return distance_count_; }
  /// Tree nodes visited by queries so far.
  uint64_t node_accesses() const { return node_access_count_; }
  /// Work-counter snapshot under backend name "xtree": node accesses,
  /// kernel vs. scalar leaf-scan queries, delta merges, stale fallbacks.
  knn::KnnBackendStats backend_stats() const;

  XTreeStats ComputeStats() const;

  /// Structural validation: MBR containment, fill bounds, uniform leaf
  /// depth, point count. Used heavily by tests.
  Status CheckInvariants() const;

  struct Node;  // public so implementation helpers can name it

 private:
  int Capacity(const Node& node) const;
  int MinFill(const Node& node) const;

  /// Removes `id` from the subtree. Appends ids of points orphaned by
  /// dissolved nodes to `orphans`; sets `found`. Returns true when `node`
  /// itself became underfull and should be dissolved by its parent.
  bool RemoveRecursive(Node* node, data::PointId id,
                       std::span<const double> point, bool is_root,
                       std::vector<data::PointId>* orphans, bool* found);
  static void CollectPoints(const Node* node,
                            std::vector<data::PointId>* out);

  /// kNN over the tree (the base rows only); Knn merges the append delta
  /// into its result.
  std::vector<knn::Neighbor> KnnBase(const knn::KnnQuery& query) const;

  Node* ChooseSubtree(Node* node, std::span<const double> point) const;
  /// Inserts into the subtree; returns a new sibling when `node` split.
  std::unique_ptr<Node> InsertRecursive(Node* node, data::PointId id,
                                        std::span<const double> point);
  std::unique_ptr<Node> SplitLeaf(Node* leaf);
  /// Returns nullptr when the node was turned into / grown as a supernode.
  std::unique_ptr<Node> SplitDirectory(Node* node);
  void RecomputeMbr(Node* node) const;

  /// The SoA snapshot for leaf kernel scans, or null when it cannot serve:
  /// no snapshot, an in-place overwrite since it was taken, or a snapshot
  /// that does not cover every row the tree holds. Logs (once) when a
  /// snapshot is attached but unusable.
  const kernels::DatasetView* kernel_view() const;

  const data::Dataset* dataset_;
  knn::MetricKind metric_;
  XTreeConfig config_;
  std::unique_ptr<Node> root_;
  size_t num_points_ = 0;
  /// Rows the tree covers; the delta [base_rows_, dataset size) is merged
  /// into query results by a scalar scan.
  size_t base_rows_ = 0;
  std::shared_ptr<const kernels::DatasetView> view_;
  // Query-path tallies; relaxed atomics so concurrent read-only Knn /
  // RangeSearch calls from service worker threads are race-free.
  mutable RelaxedCounter distance_count_;
  mutable RelaxedCounter node_access_count_;
  mutable RelaxedCounter stale_fallbacks_;
  mutable RelaxedCounter kernel_scans_;
  mutable RelaxedCounter scalar_scans_;
  mutable RelaxedCounter delta_merges_;
};

/// KnnEngine adapter so the OD evaluator can use the X-tree
/// interchangeably with LinearScanKnn. Batches take the base class's
/// per-point loop: a shared multi-point traversal ran slower than B
/// separate Knn calls in bench/bench_batch.
class XTreeKnn : public knn::KnnEngine {
 public:
  explicit XTreeKnn(const XTree& tree) : tree_(tree) {}

  std::vector<knn::Neighbor> Search(const knn::KnnQuery& query) const override {
    return tree_.Knn(query);
  }
  std::vector<knn::Neighbor> RangeSearch(std::span<const double> point,
                                         const Subspace& subspace,
                                         double radius) const override {
    return tree_.RangeSearch(point, subspace, radius);
  }
  size_t size() const override { return tree_.size(); }
  knn::MetricKind metric() const override { return tree_.metric(); }
  uint64_t distance_computations() const override {
    return tree_.distance_computations();
  }
  knn::KnnBackendStats backend_stats() const override {
    return tree_.backend_stats();
  }

 private:
  const XTree& tree_;
};

}  // namespace hos::index

#endif  // HOS_INDEX_XTREE_H_
