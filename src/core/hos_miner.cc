#include "src/core/hos_miner.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>

#include "src/core/threshold.h"
#include "src/search/batch_frontier.h"
#include "src/search/od_evaluator.h"

namespace hos::core {
namespace {

/// Rows per fused screening block. Bounds the batch state of the backends
/// (the VA-file batch keeps O(block · base) lower bounds, the X-tree batch
/// carries per-point min-distances on every queue entry) while still
/// amortising one traversal/sweep over a full kernel query tile
/// (kernels::kQueryBlock = 8) twice over.
constexpr size_t kScreenBlock = 16;

/// The first dimension of `row` holding NaN or ±Inf, or -1.
int FirstNonFinite(std::span<const double> row) {
  for (size_t dim = 0; dim < row.size(); ++dim) {
    if (!std::isfinite(row[dim])) return static_cast<int>(dim);
  }
  return -1;
}

/// InvalidArgument for a non-finite coordinate. A NaN breaks the X-tree
/// bulk load's sort order and the density grid's cell arithmetic, and an
/// Inf makes every distance to its row infinite, so neither may enter.
/// `normalized` says whether the raw value or its normalized image (a
/// finite value far outside a near-constant column's fitted range
/// normalizes to ±Inf) failed.
Status NonFinite(const std::string& row_name, int dim, double value,
                 bool normalized) {
  return Status::InvalidArgument(
      row_name + ", dimension " + std::to_string(dim) +
      (normalized ? " normalizes to " : " is ") + std::to_string(value) +
      "; coordinates must be finite");
}

/// Checks every live row of `dataset` (rows are named by id).
Status CheckRowsFinite(const data::Dataset& dataset, bool normalized) {
  for (data::PointId id = 0; id < dataset.size(); ++id) {
    if (!dataset.IsLive(id)) continue;
    const std::span<const double> row = dataset.Row(id);
    if (const int dim = FirstNonFinite(row); dim >= 0) {
      return NonFinite("row " + std::to_string(id), dim, row[dim],
                       normalized);
    }
  }
  return Status::OK();
}

/// Checks each row of a batch (rows are named by batch index).
Status CheckBatchFinite(const std::vector<std::vector<double>>& rows,
                        const char* what, bool normalized) {
  for (size_t i = 0; i < rows.size(); ++i) {
    if (const int dim = FirstNonFinite(rows[i]); dim >= 0) {
      return NonFinite(std::string(what) + " " + std::to_string(i), dim,
                       rows[i][dim], normalized);
    }
  }
  return Status::OK();
}

}  // namespace

HosMiner::HosMiner(HosMinerConfig config,
                   std::unique_ptr<data::Dataset> dataset,
                   data::Normalizer normalizer)
    : config_(std::move(config)),
      dataset_(std::move(dataset)),
      normalizer_(std::move(normalizer)),
      filter_gate_(std::make_unique<filter::FilterGate>()) {}

Result<HosMiner> HosMiner::Build(data::Dataset dataset,
                                 HosMinerConfig config) {
  const int d = dataset.num_dims();
  if (d < 1 || d > lattice::kMaxLatticeDims) {
    return Status::InvalidArgument(
        "HOS-Miner supports 1.." + std::to_string(lattice::kMaxLatticeDims) +
        " dimensions (d <= " + std::to_string(lattice::kDenseMaxDims) +
        " on the dense lattice backend, which must be asked for; the "
        "default sparse backend covers the whole range); got d=" +
        std::to_string(d));
  }
  if (dataset.live_size() == 0) {
    return Status::InvalidArgument("dataset is empty");
  }
  if (config.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  if (static_cast<size_t>(config.k) >= dataset.live_size()) {
    return Status::InvalidArgument(
        "k must be smaller than the dataset size");
  }

  HOS_RETURN_IF_ERROR(CheckRowsFinite(dataset, /*normalized=*/false));

  // 1. Normalise (a fitted, invertible transform shared with queries).
  data::Normalizer normalizer =
      data::Normalizer::Fit(dataset, config.normalization);
  auto owned = std::make_unique<data::Dataset>(std::move(dataset));
  normalizer.Apply(owned.get());
  HOS_RETURN_IF_ERROR(CheckRowsFinite(*owned, /*normalized=*/true));

  HosMiner miner(std::move(config), std::move(owned), std::move(normalizer));

  // 2+3. SoA snapshot + index (paper module 1): exactly a rebuild's
  //      prepare/commit over the freshly normalised rows, so initial
  //      construction and every later streaming rebuild share one engine
  //      stack (the commit also seals the rows as the immutable base).
  {
    HOS_ASSIGN_OR_RETURN(RebuildArtifacts stack, miner.PrepareRebuild());
    miner.CommitRebuild(std::move(stack));
  }

  Rng rng(miner.config_.seed);

  // 4. Threshold T.
  if (miner.config_.threshold > 0.0) {
    miner.threshold_ = miner.config_.threshold;
  } else {
    ThresholdOptions threshold_options;
    threshold_options.percentile = miner.config_.threshold_percentile;
    threshold_options.k = miner.config_.k;
    HOS_ASSIGN_OR_RETURN(
        miner.threshold_,
        EstimateThreshold(*miner.dataset_, *miner.engine_, threshold_options,
                          &rng));
  }

  // 5. Sampling-based learning (paper module 2). Past the dense lattice
  //    cap each sample costs a full 2^d sparse lattice search whose
  //    tractability depends entirely on the data being frontier-band
  //    shaped, so learning is skipped there (flat priors) rather than
  //    risk never returning; call learning::LearnPruningPriors directly
  //    to opt in at high d.
  miner.CommitLearning(miner.LearnPriors(&rng));
  return miner;
}

HosMiner::LearningArtifacts HosMiner::LearnPriors(Rng* rng) const {
  const int d = dataset_->num_dims();
  learning::LearnerOptions learner_options;
  learner_options.sample_size =
      d > lattice::kDenseMaxDims ? 0 : config_.sample_size;
  learner_options.k = config_.k;
  learner_options.threshold = threshold_;
  LearningArtifacts artifacts;
  artifacts.version = dataset_->version();
  artifacts.report = learning::LearnPruningPriors(*dataset_, *engine_,
                                                  learner_options, rng);
  artifacts.search = std::make_unique<search::DynamicSubspaceSearch>(
      d, artifacts.report.priors);
  return artifacts;
}

Result<QueryResult> HosMiner::Query(data::PointId id,
                                    const QueryOptions& options) const {
  if (id >= dataset_->size()) {
    return Status::OutOfRange("point id " + std::to_string(id) +
                              " outside dataset of size " +
                              std::to_string(dataset_->size()));
  }
  if (!dataset_->IsLive(id)) {
    // Distinct from OutOfRange: the id did exist, but the row was deleted
    // or slid out of the window (its storage may even be reclaimed, so it
    // must not be read).
    return Status::NotFound("point id " + std::to_string(id) +
                            " was deleted/evicted from the window");
  }
  return RunSearch(dataset_->Row(id), id, options);
}

Result<QueryResult> HosMiner::QueryPoint(std::vector<double> raw_point) const {
  if (static_cast<int>(raw_point.size()) != dataset_->num_dims()) {
    return Status::InvalidArgument(
        "query point has " + std::to_string(raw_point.size()) +
        " dimensions, dataset has " + std::to_string(dataset_->num_dims()));
  }
  if (const int dim = FirstNonFinite(raw_point); dim >= 0) {
    return NonFinite("query point", dim, raw_point[dim], false);
  }
  normalizer_.ApplyToPoint(&raw_point);
  if (const int dim = FirstNonFinite(raw_point); dim >= 0) {
    return NonFinite("query point", dim, raw_point[dim], true);
  }
  return RunSearch(raw_point, std::nullopt, QueryOptions{});
}

Result<std::vector<QueryResult>> HosMiner::QueryAll(
    const std::vector<data::PointId>& ids) const {
  std::vector<QueryResult> results;
  results.reserve(ids.size());
  for (data::PointId id : ids) {
    HOS_ASSIGN_OR_RETURN(QueryResult result, Query(id));
    results.push_back(std::move(result));
  }
  return results;
}

std::vector<double> HosMiner::ScreenBatch(
    std::span<const data::PointId> ids) const {
  const Subspace full = Subspace::Full(dataset_->num_dims());
  std::vector<double> ods;
  ods.reserve(ids.size());
  std::vector<knn::BatchPointQuery> block;
  block.reserve(kScreenBlock);
  for (size_t start = 0; start < ids.size(); start += kScreenBlock) {
    const size_t end = std::min(ids.size(), start + kScreenBlock);
    block.clear();
    for (size_t i = start; i < end; ++i) {
      block.push_back({dataset_->Row(ids[i]), ids[i]});
    }
    const std::vector<double> vals =
        knn::OutlyingDegreeBatch(*engine_, block, full, config_.k);
    ods.insert(ods.end(), vals.begin(), vals.end());
  }
  return ods;
}

std::vector<HosMiner::ScreenedOutlier> HosMiner::ScreenOutliers() const {
  std::vector<data::PointId> live;
  live.reserve(dataset_->live_size());
  for (data::PointId id = 0; id < dataset_->size(); ++id) {
    if (dataset_->IsLive(id)) live.push_back(id);
  }
  const std::vector<double> ods = ScreenBatch(live);
  std::vector<ScreenedOutlier> out;
  for (size_t i = 0; i < live.size(); ++i) {
    if (ods[i] >= threshold_) out.push_back({live[i], ods[i]});
  }
  std::sort(out.begin(), out.end(),
            [](const ScreenedOutlier& a, const ScreenedOutlier& b) {
              if (a.full_space_od != b.full_space_od) {
                return a.full_space_od > b.full_space_od;
              }
              return a.id < b.id;
            });
  return out;
}

std::vector<HosMiner::ScreenedOutlier> HosMiner::TopOutliers(
    int top_n) const {
  std::vector<data::PointId> live;
  live.reserve(dataset_->live_size());
  for (data::PointId id = 0; id < dataset_->size(); ++id) {
    if (dataset_->IsLive(id)) live.push_back(id);
  }
  const std::vector<double> ods = ScreenBatch(live);
  std::vector<ScreenedOutlier> all;
  all.reserve(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    all.push_back({live[i], ods[i]});
  }
  std::sort(all.begin(), all.end(),
            [](const ScreenedOutlier& a, const ScreenedOutlier& b) {
              if (a.full_space_od != b.full_space_od) {
                return a.full_space_od > b.full_space_od;
              }
              return a.id < b.id;
            });
  all.resize(std::min<size_t>(all.size(),
                              static_cast<size_t>(std::max(top_n, 0))));
  return all;
}

std::vector<HosMiner::TopOutlierQuery> HosMiner::TopOutliersWithSubspaces(
    int top_n, const QueryOptions& options) const {
  std::vector<TopOutlierQuery> out;
  for (const ScreenedOutlier& s : TopOutliers(top_n)) {
    // Each walk starts with the screening pass's full-space OD already in
    // its memo (bitwise the value the walk's own kNN query would compute).
    out.push_back({s.id, s.full_space_od,
                   RunSearch(dataset_->Row(s.id), s.id, options,
                             s.full_space_od)});
  }
  return out;
}

std::vector<Result<QueryResult>> HosMiner::QueryBatchFused(
    std::span<const data::PointId> ids, const QueryOptions& options) const {
  std::vector<std::optional<Result<QueryResult>>> slots(ids.size());
  std::vector<size_t> valid;
  valid.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    // Exactly Query's validation, reported per slot so one dead id cannot
    // fail its batch-mates.
    if (ids[i] >= dataset_->size()) {
      slots[i] = Status::OutOfRange("point id " + std::to_string(ids[i]) +
                                    " outside dataset of size " +
                                    std::to_string(dataset_->size()));
    } else if (!dataset_->IsLive(ids[i])) {
      slots[i] = Status::NotFound("point id " + std::to_string(ids[i]) +
                                  " was deleted/evicted from the window");
    } else {
      valid.push_back(i);
    }
  }
  if (!valid.empty()) {
    // One evaluator per point, all on the shared engine/store — the only
    // shared inputs, and both only ever hand back bitwise-exact OD values,
    // which is why the co-scheduled walks replay the per-point searches.
    std::vector<search::OdEvaluator> evaluators;
    evaluators.reserve(valid.size());
    std::vector<search::OdEvaluator*> pointers;
    pointers.reserve(valid.size());
    for (size_t i : valid) {
      evaluators.emplace_back(*engine_, dataset_->Row(ids[i]), config_.k,
                              ids[i], options.od_store);
    }
    for (search::OdEvaluator& od : evaluators) pointers.push_back(&od);

    search::SearchExecution exec;
    exec.pool = options.search_pool;
    exec.max_threads = options.search_threads;
    exec.lattice_backend = options.lattice_backend;
    exec.max_od_evaluations = options.max_od_evaluations;
    exec.filter = density_filter_.get();
    exec.filter_mode = options.filter_mode;
    exec.filter_speculative_slack = options.filter_speculative_slack;
    exec.frontier_ordering = options.frontier_ordering;
    exec.filter_gate = options.filter_gate ? filter_gate_.get() : nullptr;
    exec.margin_histogram = options.margin_histogram;
    std::unique_ptr<obs::QueryTracer> local_tracer;
    obs::QueryTracer* tracer = options.tracer;
    if (tracer == nullptr && options.collect_trace) {
      local_tracer = std::make_unique<obs::QueryTracer>();
      tracer = local_tracer.get();
    }
    const uint64_t version = dataset_->version();
    std::vector<Result<search::SearchOutcome>> outcomes;
    {
      obs::ScopedSpan search_span(
          tracer, "search", options.trace_parent,
          tracer != nullptr ? "points=" + std::to_string(valid.size())
                            : std::string());
      exec.tracer = tracer;
      exec.trace_parent = search_span.id();
      search::BatchFrontierRunner runner(dataset_->num_dims(), &priors());
      outcomes = runner.Run(pointers, threshold_, exec);
    }
    // The block records one shared span tree; every successful result
    // carries it (shared_ptr, so this stays cheap).
    std::shared_ptr<const obs::QueryTrace> trace;
    if (local_tracer != nullptr) {
      trace = std::make_shared<const obs::QueryTrace>(local_tracer->Finish());
    }
    for (size_t j = 0; j < valid.size(); ++j) {
      if (!outcomes[j].ok()) {
        slots[valid[j]] = outcomes[j].status();
        continue;
      }
      QueryResult result;
      result.outcome = std::move(outcomes[j]).value();
      result.dataset_version = version;
      result.trace = trace;
      slots[valid[j]] = std::move(result);
    }
  }
  std::vector<Result<QueryResult>> out;
  out.reserve(slots.size());
  for (std::optional<Result<QueryResult>>& slot : slots) {
    out.push_back(std::move(*slot));
  }
  return out;
}

Result<QueryResult> HosMiner::RunSearch(
    std::span<const double> point, std::optional<data::PointId> exclude,
    const QueryOptions& options,
    std::optional<double> full_space_seed) const {
  search::OdEvaluator od(*engine_, point, config_.k, exclude,
                         options.od_store);
  if (full_space_seed.has_value()) {
    // Screening hand-off: the full-space OD is already known (bitwise, from
    // the same engine), so warm the memo before the strategy snapshots its
    // counters — the seed then reports like a shared-store hit, never as a
    // fresh evaluation, and the walk skips one kNN query.
    od.Deposit(Subspace::Full(dataset_->num_dims()).mask(), *full_space_seed,
               search::OdEvaluator::ValueSource::kComputed);
  }
  search::SearchExecution exec;
  exec.pool = options.search_pool;
  exec.max_threads = options.search_threads;
  exec.lattice_backend = options.lattice_backend;
  exec.max_od_evaluations = options.max_od_evaluations;
  exec.filter = density_filter_.get();
  exec.filter_mode = options.filter_mode;
  exec.filter_speculative_slack = options.filter_speculative_slack;
  exec.frontier_ordering = options.frontier_ordering;
  exec.filter_gate = options.filter_gate ? filter_gate_.get() : nullptr;
  exec.margin_histogram = options.margin_histogram;
  // Tracing: record into the caller's tracer when given; otherwise, when
  // collect_trace asked for one, own a local tracer and hand the finished
  // trace back on the result. Spans observe timing only — the search takes
  // no decision from them — so traced and untraced answers are identical.
  std::unique_ptr<obs::QueryTracer> local_tracer;
  obs::QueryTracer* tracer = options.tracer;
  if (tracer == nullptr && options.collect_trace) {
    local_tracer = std::make_unique<obs::QueryTracer>();
    tracer = local_tracer.get();
  }
  QueryResult result;
  result.dataset_version = dataset_->version();
  {
    obs::ScopedSpan search_span(tracer, "search", options.trace_parent);
    exec.tracer = tracer;
    exec.trace_parent = search_span.id();
    HOS_ASSIGN_OR_RETURN(result.outcome,
                         query_search_->Run(&od, threshold_, exec));
  }
  if (local_tracer != nullptr) {
    result.trace =
        std::make_shared<const obs::QueryTrace>(local_tracer->Finish());
  }
  return result;
}

// ---------------------------------------------------------------------------
// Streaming ingest
// ---------------------------------------------------------------------------

Result<uint64_t> HosMiner::Append(
    const std::vector<std::vector<double>>& raw_rows) {
  HOS_ASSIGN_OR_RETURN(std::vector<std::vector<double>> normalized,
                       PrepareAppend(raw_rows));
  return CommitAppend(std::move(normalized));
}

Result<std::vector<std::vector<double>>> HosMiner::PrepareAppend(
    const std::vector<std::vector<double>>& raw_rows) const {
  // Width must be validated *before* normalization: ApplyToPoint asserts
  // on a mis-sized point. This keeps the whole append all-or-nothing.
  const int d = dataset_->num_dims();
  for (size_t i = 0; i < raw_rows.size(); ++i) {
    if (static_cast<int>(raw_rows[i].size()) != d) {
      return Status::InvalidArgument(
          "appended row " + std::to_string(i) + " has " +
          std::to_string(raw_rows[i].size()) + " dimensions, dataset has " +
          std::to_string(d));
    }
  }
  HOS_RETURN_IF_ERROR(
      CheckBatchFinite(raw_rows, "appended row", /*normalized=*/false));
  std::vector<std::vector<double>> normalized = raw_rows;
  for (std::vector<double>& row : normalized) {
    normalizer_.ApplyToPoint(&row);
  }
  HOS_RETURN_IF_ERROR(
      CheckBatchFinite(normalized, "appended row", /*normalized=*/true));
  return normalized;
}

uint64_t HosMiner::CommitAppend(
    std::vector<std::vector<double>> normalized_rows) {
  if (normalized_rows.empty()) return dataset_->version();
  // Widths were validated by PrepareAppend (the only sanctioned producer
  // of these rows), so the rows append directly.
  for (const std::vector<double>& row : normalized_rows) {
    dataset_->Append(row);
  }
  learning_stale_ = true;
  // Keep the filter's tallies synced so its coarse tier survives the
  // append (in-grid rows are counted; out-of-grid rows fold in exactly).
  if (config_.incremental_filter_tallies && density_filter_ != nullptr) {
    density_filter_->AbsorbAppends();
  }
  return dataset_->version();
}

Result<uint64_t> HosMiner::Delete(std::span<const data::PointId> ids) {
  HOS_ASSIGN_OR_RETURN(uint64_t version, dataset_->DeleteRows(ids));
  if (!ids.empty()) {
    learning_stale_ = true;
    // Sparse tally retirement: the dead rows' histogram counts go with
    // them, so the filter's bounds tighten instead of only loosening.
    if (config_.incremental_filter_tallies && density_filter_ != nullptr) {
      density_filter_->AbsorbDeletes(ids);
    }
  }
  return version;
}

size_t HosMiner::EvictBefore(uint64_t version) {
  const size_t evicted = dataset_->EvictBefore(version);
  if (evicted > 0) {
    learning_stale_ = true;
    // Eviction reports only a count, not ids: catch the tallies up with a
    // scan over counted-but-dead rows.
    if (config_.incremental_filter_tallies && density_filter_ != nullptr) {
      density_filter_->ResyncTombstones();
    }
  }
  return evicted;
}

size_t HosMiner::EvictOldest(size_t n) {
  const size_t evicted = dataset_->EvictOldest(n);
  if (evicted > 0) {
    learning_stale_ = true;
    if (config_.incremental_filter_tallies && density_filter_ != nullptr) {
      density_filter_->ResyncTombstones();
    }
  }
  return evicted;
}

HosMiner::LearningArtifacts HosMiner::PrepareLearning() const {
  Rng rng(config_.seed);
  return LearnPriors(&rng);
}

void HosMiner::CommitLearning(LearningArtifacts artifacts) {
  learning_report_ = std::move(artifacts.report);
  query_search_ = std::move(artifacts.search);
  priors_version_ = artifacts.version;
  learning_stale_ = false;
}

void HosMiner::RefreshLearning() { CommitLearning(PrepareLearning()); }

Result<HosMiner::RebuildArtifacts> HosMiner::PrepareRebuild() const {
  RebuildArtifacts artifacts;
  artifacts.rows = dataset_->size();
  artifacts.version = dataset_->version();
  // Dead rows among the covered prefix fold out of the structures built
  // below; the commit records them as sealed so churn_fraction() resets.
  artifacts.folded_tombstones =
      artifacts.rows - dataset_->CountLiveBefore(artifacts.rows);
  if (config_.index == IndexKind::kXTree) {
    auto built = config_.bulk_load
                     ? index::XTree::BulkLoad(*dataset_, config_.metric,
                                              config_.xtree)
                     : index::XTree::BuildByInsertion(*dataset_,
                                                      config_.metric,
                                                      config_.xtree);
    if (!built.ok()) return built.status();
    artifacts.xtree =
        std::make_unique<index::XTree>(std::move(built).value());
    artifacts.engine = std::make_unique<index::XTreeKnn>(*artifacts.xtree);
  } else if (config_.index == IndexKind::kVaFile) {
    auto built =
        index::VaFile::Build(*dataset_, config_.metric, config_.va_file);
    if (!built.ok()) return built.status();
    artifacts.va_file =
        std::make_unique<index::VaFile>(std::move(built).value());
    artifacts.engine =
        std::make_unique<index::VaFileKnn>(*artifacts.va_file);
  } else {
    artifacts.engine =
        std::make_unique<knn::LinearScanKnn>(*dataset_, config_.metric);
  }
  // The pre-filter rides every rebuild: a VA-file index re-exports its own
  // approximation file (no second quantization pass), every other backend
  // quantizes directly with the same cell rule.
  artifacts.filter = std::make_unique<filter::DensityBoundFilter>(
      *dataset_, config_.metric,
      artifacts.va_file != nullptr
          ? artifacts.va_file->ExportDensitySummary()
          : filter::DensitySummary::Build(*dataset_,
                                          config_.va_file.bits_per_dim));
  return artifacts;
}

void HosMiner::CommitRebuild(RebuildArtifacts artifacts) {
  xtree_ = std::move(artifacts.xtree);
  va_file_ = std::move(artifacts.va_file);
  engine_ = std::move(artifacts.engine);
  density_filter_ = std::move(artifacts.filter);
  // Rows appended or tombstoned between the prepare and this commit are
  // not in the freshly built summary; fold them in now (the caller holds
  // the same exclusive section every other mutation runs under).
  if (config_.incremental_filter_tallies) {
    density_filter_->AbsorbAppends();
    density_filter_->ResyncTombstones();
  }
  // Rows appended after PrepareRebuild are not in the artifacts; they stay
  // in the delta, so the base seal stops at what the rebuild covered. The
  // same goes for rows tombstoned after the prepare: they stay unsealed
  // and are filtered at query time until the next rebuild.
  dataset_->SealBaseAt(artifacts.rows, artifacts.folded_tombstones);
  // Chunks wholly dead below the re-sealed base are unreachable from every
  // structure now installed; release their storage.
  dataset_->ReclaimDeadChunks();
}

Status HosMiner::Rebuild() {
  HOS_ASSIGN_OR_RETURN(RebuildArtifacts artifacts, PrepareRebuild());
  CommitRebuild(std::move(artifacts));
  return Status::OK();
}

}  // namespace hos::core
