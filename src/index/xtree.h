// X-tree (Berchtold, Keim, Kriegel — VLDB'96): an R*-tree variant for
// high-dimensional data that avoids the overlap explosion of directory
// splits by keeping a directory node unsplit, at extended capacity,
// whenever every possible split would produce heavily overlapping halves.
//
// This is the paper's indexing module (Fig. 2, "X-tree Indexing"): the index
// covers the full-dimensional dataset once, and answers exact kNN queries in
// *any* subspace, because a box min-distance restricted to the subspace's
// dimensions remains a valid lower bound.
//
// Implementation notes (documented deviations from the original papers):
//  * The index is its leaves, packed by Sort-Tile-Recursive bulk loading:
//    the live rows are cut into slabs along successive dimensions (each cut
//    by selection, not a full sort) until every tile holds at most
//    kLeafCapacity rows, and each tile becomes one leaf.
//  * No directory is built, so there are no extended-capacity nodes,
//    split planning or insertion build either. No query would read them,
//    and building them was most of the build's time: a query filters all
//    leaf boxes in one vectorized pass and sweeps the surviving leaves of
//    the leaf-ordered snapshot in contiguous runs
//    (kernels::LeafFilteredTopK), so where the boxes cannot separate the
//    data — at d = 32 every box survives — it degrades into one linear
//    sweep instead of a traversal that visits every node anyway.

#ifndef HOS_INDEX_XTREE_H_
#define HOS_INDEX_XTREE_H_

#include <cstddef>

#include "src/common/result.h"
#include "src/common/status.h"
#include "src/data/dataset.h"
#include "src/kernels/batched_distance.h"
#include "src/kernels/dataset_view.h"
#include "src/knn/leaf_table_knn.h"
#include "src/knn/metric.h"

namespace hos::index {

/// Shape statistics, for tests and the index benchmarks.
struct XTreeStats {
  size_t num_points = 0;
  size_t num_leaves = 0;
};

/// The index: the kNN engine (knn::LeafTableKnn, backend "xtree") over the
/// STR leaves. Bound to a Dataset (not owned); it holds its own SoA
/// snapshot of the rows laid out leaf by leaf in tile order
/// (kernels::DatasetView::BuildInOrder), so a run of consecutive leaves is
/// one contiguous kernel sweep. Rows dead at build lie past the last leaf.
/// A changed dataset gets a new index (HosMiner::PrepareRebuild).
class XTree : public knn::LeafTableKnn {
 public:
  /// Rows per leaf at most: the 80% bulk fill of a 32-entry node.
  static constexpr size_t kLeafCapacity = 25;

  /// Sort-Tile-Recursive bulk load over every live dataset row.
  static Result<XTree> BulkLoad(const data::Dataset& dataset,
                                knn::MetricKind metric);

  XTreeStats ComputeStats() const;

  /// Validates the leaf table: `position` is the inverse of the view's
  /// row ids; every leaf holds 1..kLeafCapacity rows and a tight box over
  /// its snapshot values; every row past the last leaf is dead. Until a
  /// row is tombstoned after the build, every leaf row must be live too,
  /// so each row live at build is in exactly one leaf.
  Status CheckInvariants() const;

 private:
  XTree(const data::Dataset& dataset, knn::MetricKind metric,
        kernels::DatasetView view, kernels::LeafTable leaves);
};

}  // namespace hos::index

#endif  // HOS_INDEX_XTREE_H_
