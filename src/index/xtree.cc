#include "src/index/xtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <span>
#include <utility>

#include "src/kernels/batched_distance.h"
#include "src/knn/delta_scan.h"

namespace hos::index {

// ---------------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------------

struct XTree::Node {
  explicit Node(bool leaf, int num_dims) : is_leaf(leaf), mbr(num_dims) {}

  bool is_leaf;
  /// Capacity multiple; > 1 marks a supernode (directory nodes only).
  int supernode_factor = 1;
  Mbr mbr;
  std::vector<std::unique_ptr<Node>> children;  // directory entries
  std::vector<data::PointId> points;            // leaf entries
  /// Leaves: the snapshot position of points[0]; the leaf owns positions
  /// [first, first + points.size()). Set by RefreshKernelView.
  size_t first = 0;

  size_t NumEntries() const {
    return is_leaf ? points.size() : children.size();
  }
};

namespace {

// One candidate split: a permutation of entry indices and a cut position;
// entries order[0..split_at) go left, the rest right.
struct SplitPlan {
  std::vector<size_t> order;
  size_t split_at = 0;
  double overlap_ratio = std::numeric_limits<double>::infinity();
  double area_sum = std::numeric_limits<double>::infinity();
  bool valid = false;
};

// Jaccard overlap of two boxes; robust for degenerate (zero-area) boxes by
// falling back to a margin-based ratio.
double OverlapRatio(const Mbr& a, const Mbr& b) {
  double inter = a.IntersectionArea(b);
  double denom = a.Area() + b.Area() - inter;
  if (denom > 0.0) return inter / denom;
  // Degenerate volumes: compare shared margin instead.
  if (!a.Intersects(b)) return 0.0;
  double margin_sum = a.Margin() + b.Margin();
  if (margin_sum <= 0.0) return 1.0;  // two identical points
  Mbr shared(a.num_dims());
  shared.Expand(a);
  // Intersection margin: accumulate per-dim overlap lengths.
  double inter_margin = 0.0;
  for (int dim = 0; dim < a.num_dims(); ++dim) {
    double lo = std::max(a.min(dim), b.min(dim));
    double hi = std::min(a.max(dim), b.max(dim));
    if (hi > lo) inter_margin += hi - lo;
  }
  return 2.0 * inter_margin / margin_sum;
}

// Prefix/suffix bounding boxes of `boxes` in the order given by `order`.
void BuildCovers(const std::vector<Mbr>& boxes,
                 const std::vector<size_t>& order, std::vector<Mbr>* prefix,
                 std::vector<Mbr>* suffix) {
  const int dims = boxes.front().num_dims();
  const size_t n = order.size();
  prefix->assign(n, Mbr(dims));
  suffix->assign(n, Mbr(dims));
  Mbr acc(dims);
  for (size_t i = 0; i < n; ++i) {
    acc.Expand(boxes[order[i]]);
    (*prefix)[i] = acc;
  }
  acc = Mbr(dims);
  for (size_t i = n; i-- > 0;) {
    acc.Expand(boxes[order[i]]);
    (*suffix)[i] = acc;
  }
}

// R*-tree topological split: choose the axis minimising the summed margin
// over all balanced distributions, then the distribution on that axis with
// minimal overlap (ties: minimal total area).
SplitPlan ChooseRStarSplit(const std::vector<Mbr>& boxes, size_t min_fill) {
  const size_t n = boxes.size();
  const int dims = boxes.front().num_dims();
  assert(n >= 2 * min_fill);

  int best_axis = 0;
  double best_margin = std::numeric_limits<double>::infinity();
  std::vector<Mbr> prefix, suffix;

  auto order_by = [&](int axis, bool by_min) {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      double ka = by_min ? boxes[a].min(axis) : boxes[a].max(axis);
      double kb = by_min ? boxes[b].min(axis) : boxes[b].max(axis);
      return ka < kb;
    });
    return order;
  };

  for (int axis = 0; axis < dims; ++axis) {
    double margin_sum = 0.0;
    for (bool by_min : {true, false}) {
      auto order = order_by(axis, by_min);
      BuildCovers(boxes, order, &prefix, &suffix);
      for (size_t k = min_fill; k <= n - min_fill; ++k) {
        margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
      }
    }
    if (margin_sum < best_margin) {
      best_margin = margin_sum;
      best_axis = axis;
    }
  }

  SplitPlan best;
  for (bool by_min : {true, false}) {
    auto order = order_by(best_axis, by_min);
    BuildCovers(boxes, order, &prefix, &suffix);
    for (size_t k = min_fill; k <= n - min_fill; ++k) {
      double ratio = OverlapRatio(prefix[k - 1], suffix[k]);
      double area = prefix[k - 1].Area() + suffix[k].Area();
      if (!best.valid || ratio < best.overlap_ratio ||
          (ratio == best.overlap_ratio && area < best.area_sum)) {
        best.valid = true;
        best.order = order;
        best.split_at = k;
        best.overlap_ratio = ratio;
        best.area_sum = area;
      }
    }
  }
  return best;
}

// X-tree fallback: balanced center-sorted split searched over every axis,
// keeping the axis with minimal overlap. Approximates the split-history
// driven "overlap-minimal split" of the original paper.
SplitPlan ChooseMinOverlapSplit(const std::vector<Mbr>& boxes,
                                size_t min_fill) {
  const size_t n = boxes.size();
  const int dims = boxes.front().num_dims();
  SplitPlan best;
  std::vector<Mbr> prefix, suffix;
  for (int axis = 0; axis < dims; ++axis) {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      double ca = boxes[a].min(axis) + boxes[a].max(axis);
      double cb = boxes[b].min(axis) + boxes[b].max(axis);
      return ca < cb;
    });
    BuildCovers(boxes, order, &prefix, &suffix);
    for (size_t k = min_fill; k <= n - min_fill; ++k) {
      double ratio = OverlapRatio(prefix[k - 1], suffix[k]);
      double area = prefix[k - 1].Area() + suffix[k].Area();
      if (!best.valid || ratio < best.overlap_ratio ||
          (ratio == best.overlap_ratio && area < best.area_sum)) {
        best.valid = true;
        best.order = order;
        best.split_at = k;
        best.overlap_ratio = ratio;
        best.area_sum = area;
      }
    }
  }
  return best;
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / insertion
// ---------------------------------------------------------------------------

XTree::XTree(const data::Dataset& dataset, knn::MetricKind metric,
             XTreeConfig config)
    : dataset_(&dataset), metric_(metric), config_(config) {
  assert(config_.max_entries >= 4);
  assert(config_.min_fill > 0.0 && config_.min_fill <= 0.5);
}

XTree::~XTree() = default;
XTree::XTree(XTree&&) noexcept = default;
XTree& XTree::operator=(XTree&&) noexcept = default;

int XTree::Capacity(const Node& node) const {
  return config_.max_entries * node.supernode_factor;
}

void XTree::Insert(data::PointId id) {
  auto point = dataset_->Row(id);
  if (root_ == nullptr) {
    root_ = std::make_unique<Node>(/*leaf=*/true, dataset_->num_dims());
  }
  auto sibling = InsertRecursive(root_.get(), id, point);
  if (sibling != nullptr) {
    auto new_root = std::make_unique<Node>(/*leaf=*/false,
                                           dataset_->num_dims());
    new_root->mbr.Expand(root_->mbr);
    new_root->mbr.Expand(sibling->mbr);
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(sibling));
    root_ = std::move(new_root);
  }
  ++num_points_;
}

XTree::Node* XTree::ChooseSubtree(Node* node,
                                  std::span<const double> point) const {
  assert(!node->is_leaf && !node->children.empty());
  const auto& children = node->children;

  // R*: when children are leaves, minimise overlap enlargement; otherwise
  // minimise area enlargement. The O(n^2) overlap criterion is skipped for
  // very wide supernodes.
  const bool use_overlap =
      children.front()->is_leaf && children.size() <= 128;

  Node* best = children.front().get();
  double best_primary = std::numeric_limits<double>::infinity();
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();

  for (const auto& child : children) {
    Mbr expanded = child->mbr;
    expanded.Expand(point);
    double area = child->mbr.Area();
    double enlarge = expanded.Area() - area;

    double primary = enlarge;
    if (use_overlap) {
      double overlap_before = 0.0, overlap_after = 0.0;
      for (const auto& other : children) {
        if (other.get() == child.get()) continue;
        overlap_before += child->mbr.IntersectionArea(other->mbr);
        overlap_after += expanded.IntersectionArea(other->mbr);
      }
      primary = overlap_after - overlap_before;
    }

    if (primary < best_primary ||
        (primary == best_primary && enlarge < best_enlarge) ||
        (primary == best_primary && enlarge == best_enlarge &&
         area < best_area)) {
      best = child.get();
      best_primary = primary;
      best_enlarge = enlarge;
      best_area = area;
    }
  }
  return best;
}

std::unique_ptr<XTree::Node> XTree::InsertRecursive(
    Node* node, data::PointId id, std::span<const double> point) {
  node->mbr.Expand(point);
  if (node->is_leaf) {
    node->points.push_back(id);
    if (static_cast<int>(node->points.size()) > Capacity(*node)) {
      return SplitLeaf(node);
    }
    return nullptr;
  }
  Node* child = ChooseSubtree(node, point);
  auto sibling = InsertRecursive(child, id, point);
  if (sibling != nullptr) {
    node->children.push_back(std::move(sibling));
    if (static_cast<int>(node->children.size()) > Capacity(*node)) {
      return SplitDirectory(node);
    }
  }
  return nullptr;
}

void XTree::RecomputeMbr(Node* node) const {
  Mbr box(dataset_->num_dims());
  if (node->is_leaf) {
    for (data::PointId id : node->points) box.Expand(dataset_->Row(id));
  } else {
    for (const auto& child : node->children) box.Expand(child->mbr);
  }
  node->mbr = box;
}

std::unique_ptr<XTree::Node> XTree::SplitLeaf(Node* leaf) {
  std::vector<Mbr> boxes;
  boxes.reserve(leaf->points.size());
  for (data::PointId id : leaf->points) {
    boxes.push_back(Mbr::OfPoint(dataset_->Row(id)));
  }
  const size_t min_fill = std::max<size_t>(
      2, static_cast<size_t>(boxes.size() * config_.min_fill));
  SplitPlan plan = ChooseRStarSplit(boxes, min_fill);
  assert(plan.valid);

  auto sibling = std::make_unique<Node>(/*leaf=*/true, dataset_->num_dims());
  std::vector<data::PointId> left, right;
  for (size_t i = 0; i < plan.order.size(); ++i) {
    data::PointId id = leaf->points[plan.order[i]];
    (i < plan.split_at ? left : right).push_back(id);
  }
  leaf->points = std::move(left);
  sibling->points = std::move(right);
  RecomputeMbr(leaf);
  RecomputeMbr(sibling.get());
  return sibling;
}

std::unique_ptr<XTree::Node> XTree::SplitDirectory(Node* node) {
  std::vector<Mbr> boxes;
  boxes.reserve(node->children.size());
  for (const auto& child : node->children) boxes.push_back(child->mbr);
  const size_t min_fill = std::max<size_t>(
      2, static_cast<size_t>(boxes.size() * config_.min_fill));

  SplitPlan plan = ChooseRStarSplit(boxes, min_fill);
  if (plan.overlap_ratio > config_.max_overlap_ratio) {
    SplitPlan alt = ChooseMinOverlapSplit(boxes, min_fill);
    if (alt.valid && alt.overlap_ratio < plan.overlap_ratio) plan = alt;
  }

  if (plan.overlap_ratio > config_.max_overlap_ratio &&
      node->supernode_factor < config_.max_supernode_factor) {
    // X-tree decision: splitting would create heavily overlapping directory
    // entries, so keep the node together as a supernode instead.
    ++node->supernode_factor;
    return nullptr;
  }

  auto sibling = std::make_unique<Node>(/*leaf=*/false, dataset_->num_dims());
  std::vector<std::unique_ptr<Node>> left, right;
  for (size_t i = 0; i < plan.order.size(); ++i) {
    auto& child = node->children[plan.order[i]];
    (i < plan.split_at ? left : right).push_back(std::move(child));
  }
  node->children = std::move(left);
  sibling->children = std::move(right);
  // A forced split of an oversized supernode can leave halves above the
  // base capacity; keep them as (smaller) supernodes so capacity holds.
  auto refit_factor = [this](Node* n) {
    n->supernode_factor = std::max<int>(
        1, static_cast<int>((n->children.size() + config_.max_entries - 1) /
                            config_.max_entries));
  };
  refit_factor(node);
  refit_factor(sibling.get());
  RecomputeMbr(node);
  RecomputeMbr(sibling.get());
  return sibling;
}

void XTree::RefreshKernelView() {
  const size_t n = dataset_->size();
  std::vector<data::PointId> order;
  order.reserve(n);
  std::vector<bool> placed(n, false);
  std::function<void(Node*)> lay_out = [&](Node* node) {
    if (!node->is_leaf) {
      for (const auto& child : node->children) lay_out(child.get());
      return;
    }
    node->first = order.size();
    for (data::PointId id : node->points) {
      order.push_back(id);
      placed[id] = true;
    }
  };
  if (root_ != nullptr) lay_out(root_.get());
  // Rows outside the tree (dead at build) still get positions, so the
  // snapshot covers [0, n) like any other.
  for (size_t id = 0; id < n; ++id) {
    if (!placed[id]) order.push_back(static_cast<data::PointId>(id));
  }
  view_ = kernels::DatasetView::BuildInOrder(*dataset_, std::move(order));
}

Result<XTree> XTree::BuildByInsertion(const data::Dataset& dataset,
                                      knn::MetricKind metric,
                                      XTreeConfig config) {
  XTree tree(dataset, metric, config);
  for (data::PointId id = 0; id < dataset.size(); ++id) {
    if (!dataset.IsLive(id)) continue;  // tombstones fold out at build
    tree.Insert(id);
  }
  tree.RefreshKernelView();
  return tree;
}

// ---------------------------------------------------------------------------
// Bulk load (Sort-Tile-Recursive)
// ---------------------------------------------------------------------------

namespace {

// Recursively tiles `ids` into chunks of at most `cap` items, sorting by
// successive dimensions (STR). Appends chunks to `out`. Each level reads
// key(id, dim) once per item and sorts (key, id) pairs on the key alone:
// std::sort then sees the same comparison outcomes in the same order as a
// comparator calling key() on both sides, so the tiles are the same.
template <typename KeyFn>
void StrTile(std::span<size_t> ids, int dim, int num_dims, size_t cap,
             const KeyFn& key, std::vector<std::vector<size_t>>* out) {
  if (ids.size() <= cap) {
    if (!ids.empty()) out->emplace_back(ids.begin(), ids.end());
    return;
  }
  const size_t num_chunks = (ids.size() + cap - 1) / cap;
  const int remaining = num_dims - dim;
  size_t slabs;
  if (remaining <= 1) {
    slabs = num_chunks;
  } else {
    slabs = static_cast<size_t>(
        std::ceil(std::pow(static_cast<double>(num_chunks),
                           1.0 / static_cast<double>(remaining))));
    slabs = std::max<size_t>(2, slabs);
  }
  std::vector<std::pair<double, size_t>> keyed(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) keyed[i] = {key(ids[i], dim), ids[i]};
  std::sort(keyed.begin(), keyed.end(),
            [](const std::pair<double, size_t>& a,
               const std::pair<double, size_t>& b) {
              return a.first < b.first;
            });
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = keyed[i].second;
  const size_t slab_size = (ids.size() + slabs - 1) / slabs;
  for (size_t start = 0; start < ids.size(); start += slab_size) {
    const std::span<size_t> slab =
        ids.subspan(start, std::min(slab_size, ids.size() - start));
    if (remaining <= 1) {
      // Final dimension: each slab is already a chunk of size <= cap.
      out->emplace_back(slab.begin(), slab.end());
    } else {
      StrTile(slab, dim + 1, num_dims, cap, key, out);
    }
  }
}

}  // namespace

Result<XTree> XTree::BulkLoad(const data::Dataset& dataset,
                              knn::MetricKind metric, XTreeConfig config) {
  XTree tree(dataset, metric, config);
  const size_t n = dataset.size();
  const int dims = dataset.num_dims();
  const size_t cap = std::max<size_t>(
      2, static_cast<size_t>(config.max_entries * config.bulk_fill));

  // 1. Tile the *live* points into leaves; tombstoned rows fold out here.
  std::vector<size_t> ids;
  ids.reserve(dataset.live_size());
  for (size_t i = 0; i < n; ++i) {
    if (dataset.IsLive(static_cast<data::PointId>(i))) ids.push_back(i);
  }
  tree.num_points_ = ids.size();
  if (ids.empty()) {
    tree.RefreshKernelView();
    return tree;
  }
  std::vector<std::vector<size_t>> tiles;
  StrTile(std::span<size_t>(ids), 0, dims, cap,
          [&](size_t id, int dim) {
            return dataset.At(static_cast<data::PointId>(id), dim);
          },
          &tiles);

  std::vector<std::unique_ptr<Node>> level;
  level.reserve(tiles.size());
  for (auto& tile : tiles) {
    auto leaf = std::make_unique<Node>(/*leaf=*/true, dims);
    leaf->points.reserve(tile.size());
    for (size_t id : tile) {
      leaf->points.push_back(static_cast<data::PointId>(id));
    }
    tree.RecomputeMbr(leaf.get());
    level.push_back(std::move(leaf));
  }

  // 2. Build directory levels bottom-up until a single root remains.
  while (level.size() > 1) {
    std::vector<size_t> node_ids(level.size());
    for (size_t i = 0; i < level.size(); ++i) node_ids[i] = i;
    std::vector<std::vector<size_t>> groups;
    StrTile(std::span<size_t>(node_ids), 0, dims, cap,
            [&](size_t id, int dim) {
              const Mbr& box = level[id]->mbr;
              return 0.5 * (box.min(dim) + box.max(dim));
            },
            &groups);
    std::vector<std::unique_ptr<Node>> parents;
    parents.reserve(groups.size());
    for (auto& group : groups) {
      auto parent = std::make_unique<Node>(/*leaf=*/false, dims);
      parent->children.reserve(group.size());
      for (size_t id : group) parent->children.push_back(std::move(level[id]));
      tree.RecomputeMbr(parent.get());
      parents.push_back(std::move(parent));
    }
    level = std::move(parents);
  }
  tree.root_ = std::move(level.front());
  tree.RefreshKernelView();
  return tree;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

namespace {

struct NodeItem {
  double dist;  // the node's MBR min-distance to the query
  const XTree::Node* node;
};

struct NodeGreater {
  bool operator()(const NodeItem& a, const NodeItem& b) const {
    return a.dist > b.dist;
  }
};

}  // namespace

std::vector<knn::Neighbor> XTree::Knn(const knn::KnnQuery& query) const {
  std::vector<knn::Neighbor> out = KnnBase(query);
  // Exact merge of the append delta: the k smallest (distance, id) of
  // base ∪ delta are the k smallest of (base top-k) ∪ delta.
  const data::PointId delta_begin = knn::DeltaBegin(view_, *dataset_);
  const auto live = static_cast<data::PointId>(dataset_->size());
  if (live > delta_begin && query.k > 0) {
    ++delta_merges_;
    kernels::TopKCollector merged(static_cast<size_t>(query.k));
    for (const knn::Neighbor& n : out) merged.Offer(n.id, n.distance);
    distance_count_ += knn::DeltaScanTopK(*dataset_, metric_, query.point,
                                          query.subspace, delta_begin, live,
                                          query.exclude, &merged);
    return merged.TakeSorted();
  }
  return out;
}

std::vector<knn::Neighbor> XTree::KnnBase(const knn::KnnQuery& query) const {
  if (root_ == nullptr || query.k <= 0) return {};
  ++kernel_scans_;
  // Rows tombstoned after the tree was built are still in its leaves; the
  // collector rejects them at admission, so they neither reach the answer
  // nor tighten its bound.
  const bool filter_dead = dataset_->num_tombstones() > 0;
  kernels::TopKCollector collector(static_cast<size_t>(query.k),
                                   filter_dead ? dataset_ : nullptr);
  const std::vector<int> dims = query.subspace.Dims();

  // Nodes pop in ascending min-distance. Every point of a node is at least
  // its min-distance away, and the collector's bound only falls towards
  // the final k-th distance, so the first node strictly beyond the bound
  // ends the search; a node exactly at the bound is still scanned, since
  // it may hold a tie with a smaller id.
  std::priority_queue<NodeItem, std::vector<NodeItem>, NodeGreater> heap;
  heap.push({root_->mbr.MinDistance(query.point, query.subspace, metric_),
             root_.get()});
  uint64_t nodes = 0;
  uint64_t computed = 0;
  while (!heap.empty()) {
    const NodeItem item = heap.top();
    if (item.dist > collector.bound()) break;
    heap.pop();
    const Node* node = item.node;
    ++nodes;
    if (!node->is_leaf) {
      for (const auto& child : node->children) {
        heap.push({child->mbr.MinDistance(query.point, query.subspace, metric_),
                   child.get()});
      }
    } else {
      computed += kernels::ScanRangeForTopK(view_, query.point, dims, metric_,
                                            node->first, node->points.size(),
                                            query.exclude, &collector);
    }
  }
  node_access_count_ += nodes;
  distance_count_ += computed;
  return collector.TakeSorted();
}

std::vector<knn::Neighbor> XTree::RangeSearch(std::span<const double> point,
                                              const Subspace& subspace,
                                              double radius) const {
  std::vector<knn::Neighbor> out;
  const data::PointId delta_begin = knn::DeltaBegin(view_, *dataset_);
  const auto live = static_cast<data::PointId>(dataset_->size());
  if (root_ != nullptr) {
    ++kernel_scans_;
    if (live > delta_begin) ++delta_merges_;
    const bool filter_dead = dataset_->num_tombstones() > 0;
    const std::vector<int> dims = subspace.Dims();
    std::vector<double> leaf_dist;
    std::function<void(const Node*)> visit = [&](const Node* node) {
      ++node_access_count_;
      if (node->is_leaf) {
        const size_t count = node->points.size();
        leaf_dist.resize(count);
        kernels::BatchedSubspaceDistanceRange(
            view_, point, dims, metric_,
            static_cast<data::PointId>(node->first), count, radius, leaf_dist);
        distance_count_ += count;
        for (size_t j = 0; j < count; ++j) {
          if (leaf_dist[j] <= radius) {
            const data::PointId id = view_.RowAt(node->first + j);
            if (filter_dead && !dataset_->IsLive(id)) continue;
            out.push_back({id, leaf_dist[j]});
          }
        }
        return;
      }
      for (const auto& child : node->children) {
        if (child->mbr.MinDistance(point, subspace, metric_) <= radius) {
          visit(child.get());
        }
      }
    };
    if (root_->mbr.MinDistance(point, subspace, metric_) <= radius) {
      visit(root_.get());
    }
  }
  distance_count_ += knn::DeltaScanRange(*dataset_, metric_, point, subspace,
                                         delta_begin, live, radius, &out);
  std::sort(out.begin(), out.end(),
            [](const knn::Neighbor& a, const knn::Neighbor& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.id < b.id;
            });
  return out;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

knn::KnnBackendStats XTree::backend_stats() const {
  knn::KnnBackendStats stats;
  stats.backend = "xtree";
  stats.distance_computations = distance_count_;
  stats.node_accesses = node_access_count_;
  stats.kernel_scans = kernel_scans_;
  stats.delta_merges = delta_merges_;
  return stats;
}

XTreeStats XTree::ComputeStats() const {
  XTreeStats stats;
  if (root_ == nullptr) return stats;
  std::function<void(const Node*, int)> visit = [&](const Node* node,
                                                    int depth) {
    stats.height = std::max(stats.height, depth);
    if (node->is_leaf) {
      ++stats.num_leaves;
      stats.num_points += node->points.size();
    } else {
      ++stats.num_directory_nodes;
      if (node->supernode_factor > 1) {
        ++stats.num_supernodes;
        stats.largest_supernode_factor = std::max(
            stats.largest_supernode_factor, node->supernode_factor);
      }
      for (const auto& child : node->children) visit(child.get(), depth + 1);
    }
  };
  visit(root_.get(), 1);
  return stats;
}

Status XTree::CheckInvariants() const {
  if (root_ == nullptr) {
    return num_points_ == 0
               ? Status::OK()
               : Status::Internal("null root but num_points > 0");
  }
  size_t points_seen = 0;
  int leaf_depth = -1;
  std::function<Status(const Node*, int, bool)> visit =
      [&](const Node* node, int depth, bool is_root) -> Status {
    if (node->NumEntries() == 0) {
      return Status::Internal("empty node at depth " + std::to_string(depth));
    }
    if (static_cast<int>(node->NumEntries()) > Capacity(*node)) {
      return Status::Internal("node exceeds capacity");
    }
    if (!is_root &&
        static_cast<int>(node->NumEntries()) < 2 && !node->is_leaf) {
      return Status::Internal("directory node with < 2 entries");
    }
    if (node->is_leaf) {
      if (leaf_depth == -1) leaf_depth = depth;
      if (depth != leaf_depth) {
        return Status::Internal("non-uniform leaf depth");
      }
      points_seen += node->points.size();
      Mbr cover(dataset_->num_dims());
      for (data::PointId id : node->points) {
        if (id >= dataset_->size()) {
          return Status::Internal("leaf references invalid point id");
        }
        if (!node->mbr.ContainsPoint(dataset_->Row(id))) {
          return Status::Internal("leaf MBR does not contain its point");
        }
        cover.Expand(dataset_->Row(id));
      }
      if (!cover.ContainsMbr(node->mbr) || !node->mbr.ContainsMbr(cover)) {
        return Status::Internal("leaf MBR is not tight");
      }
    } else {
      Mbr cover(dataset_->num_dims());
      for (const auto& child : node->children) {
        if (!node->mbr.ContainsMbr(child->mbr)) {
          return Status::Internal("parent MBR does not contain child MBR");
        }
        cover.Expand(child->mbr);
        HOS_RETURN_IF_ERROR(visit(child.get(), depth + 1, false));
      }
      if (!cover.ContainsMbr(node->mbr) || !node->mbr.ContainsMbr(cover)) {
        return Status::Internal("directory MBR is not tight");
      }
      if (node->supernode_factor > config_.max_supernode_factor) {
        return Status::Internal("supernode factor exceeds configured cap");
      }
    }
    return Status::OK();
  };
  HOS_RETURN_IF_ERROR(visit(root_.get(), 1, true));
  if (points_seen != num_points_) {
    return Status::Internal(
        "tree holds " + std::to_string(points_seen) + " points, expected " +
        std::to_string(num_points_));
  }
  return Status::OK();
}

}  // namespace hos::index
