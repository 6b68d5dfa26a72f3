#include "src/core/hos_miner.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "src/core/threshold.h"
#include "src/search/batch_frontier.h"
#include "src/search/od_evaluator.h"

namespace hos::core {
namespace {

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
  // A NaN threshold would silently fall through to estimation, and an
  // infinite one cannot be written as JSON.
  if (!std::isfinite(config.threshold)) {
    return Status::InvalidArgument("threshold must be finite");
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
  // An infinite scale maps a column to zeros, which the row check passes.
  if (const int dim = normalizer.FirstNonFiniteScale(); dim >= 0) {
    return Status::InvalidArgument(
        "dimension " + std::to_string(dim) +
        " cannot be normalized: its spread overflows a double");
  }

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
  return artifacts;
}

Result<QueryResult> HosMiner::Query(data::PointId id,
                                    const QueryOptions& options) const {
  return std::move(QueryBatchFused({&id, 1}, options).front());
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
  HOS_RETURN_IF_ERROR(CheckWindowHoldsK(/*query_is_row=*/false));
  // An external point is no row of the dataset, so nothing is excluded
  // from its neighbours.
  search::OdEvaluator od(*engine_, raw_point, config_.k, std::nullopt,
                         nullptr);
  return std::move(RunBlock({&od, 1}, QueryOptions{}).front());
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
  for (const data::PointId id : ids) {
    ods.push_back(knn::OutlyingDegree(
        *engine_, {dataset_->Row(id), full, config_.k, id}));
  }
  return ods;
}

std::vector<HosMiner::ScreenedOutlier> HosMiner::ScreenOutliers() const {
  if (!CheckWindowHoldsK(/*query_is_row=*/true).ok()) return {};
  const std::vector<data::PointId> live = dataset_->LiveIds();
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
  if (!CheckWindowHoldsK(/*query_is_row=*/true).ok()) return {};
  const std::vector<data::PointId> live = dataset_->LiveIds();
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
  const uint64_t full = Subspace::Full(dataset_->num_dims()).mask();
  std::vector<TopOutlierQuery> out;
  for (const ScreenedOutlier& s : TopOutliers(top_n)) {
    search::OdEvaluator od(*engine_, dataset_->Row(s.id), config_.k, s.id,
                           options.od_store);
    // Screening hand-off: the full-space OD is already known (bitwise, from
    // the same engine), so warm the memo before the walk snapshots its
    // counters — the seed then reports like a shared-store hit, never as a
    // fresh evaluation, and the walk skips one kNN query.
    od.Deposit(full, s.full_space_od,
               search::OdEvaluator::ValueSource::kComputed);
    out.push_back({s.id, s.full_space_od,
                   std::move(RunBlock({&od, 1}, options).front())});
  }
  return out;
}

std::vector<Result<QueryResult>> HosMiner::QueryBatchFused(
    std::span<const data::PointId> ids, const QueryOptions& options) const {
  // Each id is checked alone and fails in its own slot, so one dead id
  // cannot fail its batch-mates. The valid points each get an evaluator on
  // the shared engine and store — the only shared inputs, and both only
  // ever hand back bitwise-exact OD values, which is why the co-scheduled
  // walks replay the per-point searches.
  const Status window = CheckWindowHoldsK(/*query_is_row=*/true);
  std::vector<search::OdEvaluator> evaluators;
  evaluators.reserve(ids.size());
  std::vector<Status> rejected;  // one per id, sized at the first failure
  for (size_t i = 0; i < ids.size(); ++i) {
    Status check = window;
    if (ids[i] >= dataset_->size()) {
      check = Status::OutOfRange("point id " + std::to_string(ids[i]) +
                                 " outside dataset of size " +
                                 std::to_string(dataset_->size()));
    } else if (!dataset_->IsLive(ids[i])) {
      // Distinct from OutOfRange: the id did exist, but the row was deleted
      // or slid out of the window (its storage may even be reclaimed, so it
      // must not be read).
      check = Status::NotFound("point id " + std::to_string(ids[i]) +
                               " was deleted/evicted from the window");
    }
    if (check.ok()) {
      evaluators.emplace_back(*engine_, dataset_->Row(ids[i]), config_.k,
                              ids[i], options.od_store);
    } else {
      rejected.resize(ids.size());
      rejected[i] = std::move(check);
    }
  }
  std::vector<Result<QueryResult>> answers = RunBlock(evaluators, options);
  if (rejected.empty()) return answers;
  std::vector<Result<QueryResult>> out;
  out.reserve(ids.size());
  auto answer = std::make_move_iterator(answers.begin());
  for (Status& status : rejected) {
    if (status.ok()) {
      out.push_back(*answer++);
    } else {
      out.push_back(std::move(status));
    }
  }
  return out;
}

Status HosMiner::CheckWindowHoldsK(bool query_is_row) const {
  const size_t live = dataset_->live_size();
  if (live >= static_cast<size_t>(config_.k) + (query_is_row ? 1 : 0)) {
    return Status::OK();
  }
  return Status::FailedPrecondition(
      "k = " + std::to_string(config_.k) + " needs that many live rows" +
      (query_is_row ? " besides the query's own" : "") + ", but " +
      std::to_string(live) + " rows are live");
}

std::vector<Result<QueryResult>> HosMiner::RunBlock(
    std::span<search::OdEvaluator> ods, const QueryOptions& options) const {
  if (ods.empty()) return {};
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
  std::vector<search::OdEvaluator*> pointers;
  pointers.reserve(ods.size());
  for (search::OdEvaluator& od : ods) pointers.push_back(&od);
  // Tracing: record into the caller's tracer when given; otherwise, when
  // collect_trace asked for one, own a local tracer and hand the finished
  // trace back. Spans observe timing only — the search takes no decision
  // from them — so traced and untraced answers are identical.
  std::unique_ptr<obs::QueryTracer> local_tracer;
  obs::QueryTracer* tracer = options.tracer;
  if (tracer == nullptr && options.collect_trace) {
    local_tracer = std::make_unique<obs::QueryTracer>();
    tracer = local_tracer.get();
  }
  std::vector<Result<search::SearchOutcome>> outcomes;
  {
    obs::ScopedSpan search_span(
        tracer, "search", options.trace_parent,
        tracer != nullptr ? "points=" + std::to_string(ods.size())
                          : std::string());
    exec.tracer = tracer;
    exec.trace_parent = search_span.id();
    outcomes = search::BatchFrontierRunner(dataset_->num_dims(), &priors())
                   .Run(pointers, threshold_, exec);
  }
  // The block's one span tree is shared by every successful result
  // (shared_ptr, so this stays cheap).
  std::shared_ptr<const obs::QueryTrace> trace;
  if (local_tracer != nullptr) {
    trace = std::make_shared<const obs::QueryTrace>(local_tracer->Finish());
  }
  std::vector<Result<QueryResult>> results;
  results.reserve(outcomes.size());
  for (Result<search::SearchOutcome>& outcome : outcomes) {
    if (!outcome.ok()) {
      results.push_back(outcome.status());
      continue;
    }
    QueryResult result;
    result.outcome = std::move(outcome).value();
    result.dataset_version = dataset_->version();
    result.trace = trace;
    results.push_back(std::move(result));
  }
  return results;
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
  // Keep the filter's tallies synced so its coarse tier survives the
  // append (in-grid rows are counted; out-of-grid rows fold in exactly).
  if (config_.incremental_filter_tallies && density_filter_ != nullptr) {
    density_filter_->AbsorbAppends();
  }
  return dataset_->version();
}

Result<uint64_t> HosMiner::Delete(std::span<const data::PointId> ids) {
  HOS_ASSIGN_OR_RETURN(uint64_t version, dataset_->DeleteRows(ids));
  // Sparse tally retirement: the dead rows' histogram counts go with
  // them, so the filter's bounds tighten instead of only loosening.
  if (!ids.empty() && config_.incremental_filter_tallies &&
      density_filter_ != nullptr) {
    density_filter_->AbsorbDeletes(ids);
  }
  return version;
}

size_t HosMiner::EvictBefore(uint64_t version) {
  const size_t evicted = dataset_->EvictBefore(version);
  // Eviction reports only a count, not ids: catch the tallies up with a
  // scan over counted-but-dead rows.
  if (evicted > 0 && config_.incremental_filter_tallies &&
      density_filter_ != nullptr) {
    density_filter_->ResyncTombstones();
  }
  return evicted;
}

size_t HosMiner::EvictOldest(size_t n) {
  const size_t evicted = dataset_->EvictOldest(n);
  if (evicted > 0 && config_.incremental_filter_tallies &&
      density_filter_ != nullptr) {
    density_filter_->ResyncTombstones();
  }
  return evicted;
}

HosMiner::LearningArtifacts HosMiner::PrepareLearning() const {
  Rng rng(config_.seed);
  return LearnPriors(&rng);
}

void HosMiner::CommitLearning(LearningArtifacts artifacts) {
  learning_report_ = std::move(artifacts.report);
  priors_version_ = artifacts.version;
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
    auto built = index::XTree::BulkLoad(*dataset_, config_.metric);
    if (!built.ok()) return built.status();
    artifacts.engine =
        std::make_unique<index::XTree>(std::move(built).value());
  } else {
    artifacts.engine =
        std::make_unique<knn::LinearScanKnn>(*dataset_, config_.metric);
  }
  // The pre-filter rides every rebuild, quantizing the same rows.
  artifacts.filter = std::make_unique<filter::DensityBoundFilter>(
      *dataset_, config_.metric,
      filter::DensitySummary::Build(*dataset_, config_.filter_bits_per_dim));
  return artifacts;
}

void HosMiner::CommitRebuild(RebuildArtifacts artifacts) {
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
