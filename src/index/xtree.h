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
// The directory (splits, supernodes) is a build-time structure: it decides
// which rows share a leaf. Queries never walk it. They filter the leaves'
// boxes in one vectorized pass and sweep the surviving leaves of the
// leaf-ordered snapshot in contiguous runs (kernels::LeafFilteredTopK), so
// where the directory cannot separate the data — at d = 32 every box
// survives — a query degrades into one linear sweep instead of a traversal
// that visits every node anyway.
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
#include "src/kernels/batched_distance.h"
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
/// coordinates; the tree stores point ids and boxes, plus its own SoA
/// snapshot of the rows laid out leaf by leaf
/// (kernels::DatasetView::BuildInOrder) and a table of the leaves' position
/// ranges and boxes (kernels::LeafTable), so a run of consecutive leaves is
/// one contiguous kernel sweep.
///
/// A built tree is an immutable snapshot: the factories below are the only
/// way to make one, and a changed dataset gets a new tree
/// (HosMiner::PrepareRebuild). Rows appended after the build are merged in
/// exactly by a scalar delta scan and tombstoned rows are filtered at
/// admission; overwriting a snapshotted row in place is a contract
/// violation, asserted in debug builds.
class XTree {
 public:
  ~XTree();

  XTree(XTree&&) noexcept;
  XTree& operator=(XTree&&) noexcept;

  /// The paper's build: repeated insertion of every live dataset row.
  static Result<XTree> BuildByInsertion(const data::Dataset& dataset,
                                        knn::MetricKind metric,
                                        XTreeConfig config = {});

  /// Sort-Tile-Recursive bulk load over every live dataset row — much
  /// faster than repeated insertion and produces a well-packed tree.
  static Result<XTree> BulkLoad(const data::Dataset& dataset,
                                knn::MetricKind metric,
                                XTreeConfig config = {});

  /// Rows covered by the tree's snapshot (the dataset's size at the
  /// build); rows appended afterwards — [base_rows(), dataset.size()) —
  /// are the delta, which Knn and RangeSearch merge in exactly via a
  /// scalar scan.
  size_t base_rows() const { return view_.num_points(); }

  /// Exact k nearest neighbours in `query.subspace`, ascending
  /// (distance, id), bitwise equal to LinearScanKnn's answer. The leaf
  /// nearest the query (by box min-distance) is scanned first; every other
  /// leaf is swept in position order unless its box lies strictly beyond
  /// the current k-th distance. So every leaf whose box is within the final
  /// k-th distance is scanned, and a leaf exactly at it too, since it may
  /// hold a tie with a smaller id.
  std::vector<knn::Neighbor> Knn(const knn::KnnQuery& query) const;

  /// All points within `radius` (inclusive), ascending (distance, id): the
  /// leaves whose box is within `radius` are swept in position order.
  std::vector<knn::Neighbor> RangeSearch(std::span<const double> point,
                                         const Subspace& subspace,
                                         double radius) const;

  size_t size() const { return num_points_; }
  knn::MetricKind metric() const { return metric_; }
  const XTreeConfig& config() const { return config_; }

  /// Point-to-point distance computations performed by queries so far.
  uint64_t distance_computations() const { return distance_count_; }
  /// Leaves scanned by queries so far. Queries read no directory node, so
  /// this counts only the leaves whose rows a Knn or RangeSearch swept.
  uint64_t node_accesses() const { return node_access_count_; }
  /// Work-counter snapshot under backend name "xtree": leaves scanned
  /// (reported as node accesses), kernel queries and delta merges.
  knn::KnnBackendStats backend_stats() const;

  XTreeStats ComputeStats() const;

  /// Structural validation: MBR containment, fill bounds, uniform leaf
  /// depth, point count. Used heavily by tests.
  Status CheckInvariants() const;

 private:
  struct Node;

  /// Empty tree over `dataset`'s dimensionality; the factories fill it.
  XTree(const data::Dataset& dataset, knn::MetricKind metric,
        XTreeConfig config);

  /// Build step of BuildByInsertion: inserts one live dataset row by id.
  void Insert(data::PointId id);

  /// Final build step: snapshots every dataset row leaf by leaf
  /// (depth-first leaf order, then the rows the tree does not hold) and
  /// records the leaf table: each leaf's position range and box, and every
  /// row's position.
  void RefreshKernelView();

  int Capacity(const Node& node) const;

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

  const data::Dataset* dataset_;
  knn::MetricKind metric_;
  XTreeConfig config_;
  std::unique_ptr<Node> root_;
  size_t num_points_ = 0;
  kernels::DatasetView view_;
  kernels::LeafTable leaves_;
  // Query-path tallies; relaxed atomics so concurrent read-only Knn /
  // RangeSearch calls from service worker threads are race-free.
  mutable RelaxedCounter distance_count_;
  mutable RelaxedCounter node_access_count_;
  mutable RelaxedCounter kernel_scans_;
  mutable RelaxedCounter delta_merges_;
};

/// KnnEngine adapter so the OD evaluator can use the X-tree
/// interchangeably with LinearScanKnn. Batches take the base class's
/// per-point loop: a shared multi-point traversal ran slower than B
/// separate Knn calls (measured when it was removed; see the leaf-ordered
/// X-tree entry in CHANGES.md).
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
