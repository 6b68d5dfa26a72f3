// Differential suite for fused multi-query execution: the proof that
// co-scheduling a block of lattice searches (search::BatchFrontierRunner,
// surfaced as core::HosMiner::QueryBatchFused / ScreenBatch) is an
// execution detail, not a semantic change. Every fused result is held to
// the same points run one at a time (a block of one: DynamicSubspaceSearch
// and HosMiner::Query) field by field — identical minimal outlying
// subspaces, the order-sensitive evaluated_outliers list, bitwise outlier
// fractions and OD values, and identical lattice-derived work counters —
// and the runner-level answers to the ExhaustiveSearch oracle, across kNN
// backends {linear scan, X-tree}, level orders {dynamic, bottom-up,
// top-down}, density-filter modes {kOff, kConservative}, planted and
// adversarial datasets, mixed valid/invalid id slots, and per-point budget
// exhaustion.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/core/hos_miner.h"
#include "src/data/generator.h"
#include "src/filter/density_filter.h"
#include "src/filter/density_summary.h"
#include "src/filter/filter_gate.h"
#include "src/knn/linear_scan.h"
#include "src/obs/trace.h"
#include "src/lattice/saving_factors.h"
#include "src/search/batch_frontier.h"
#include "src/search/od_evaluator.h"
#include "src/search/subspace_search.h"
#include "tests/testutil/adversarial_gen.h"

namespace hos::search {
namespace {

/// Everything QueryBatchFused promises bitwise: answer content plus every
/// counter that is a function of the point's own walk. Only the engine's
/// shared monitoring values (distance_computations, elapsed_seconds) are
/// exempt — see batch_frontier.h.
void ExpectOutcomeIdentical(const SearchOutcome& fused,
                            const SearchOutcome& sequential,
                            const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(fused.num_dims, sequential.num_dims);
  EXPECT_EQ(fused.threshold, sequential.threshold);
  EXPECT_EQ(fused.minimal_outlying_subspaces,
            sequential.minimal_outlying_subspaces);
  EXPECT_EQ(fused.evaluated_outliers, sequential.evaluated_outliers);
  EXPECT_EQ(fused.outlier_fraction, sequential.outlier_fraction);
  EXPECT_EQ(fused.counters.od_evaluations, sequential.counters.od_evaluations);
  EXPECT_EQ(fused.counters.pruned_upward, sequential.counters.pruned_upward);
  EXPECT_EQ(fused.counters.pruned_downward,
            sequential.counters.pruned_downward);
  EXPECT_EQ(fused.counters.steps, sequential.counters.steps);
  EXPECT_EQ(fused.counters.bound_decisions,
            sequential.counters.bound_decisions);
  EXPECT_EQ(fused.counters.risky_decisions,
            sequential.counters.risky_decisions);
  EXPECT_EQ(fused.counters.bound_gap, sequential.counters.bound_gap);
  EXPECT_EQ(fused.counters.gate_skips, sequential.counters.gate_skips);
}

data::GeneratedData MakePlanted(uint64_t seed, int d) {
  Rng rng(seed);
  data::SubspaceOutlierSpec spec;
  spec.num_points = 220;
  spec.num_dims = d;
  spec.planted_subspaces = {Subspace::FromOneBased({1, 2})};
  if (d >= 5) {
    spec.planted_subspaces.push_back(Subspace::FromOneBased({3, 4, 5}));
  }
  spec.displacement = 0.5;
  auto generated = data::GenerateSubspaceOutliers(spec, &rng);
  EXPECT_TRUE(generated.ok());
  return std::move(generated).value();
}

/// A thread-safe, map-backed SharedOdStore that keeps every value written
/// to it, so two runs' fresh evaluations can be compared mask by mask.
class MapStore : public SharedOdStore {
 public:
  bool Lookup(data::PointId id, uint64_t mask, double* od) override {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = values_.find({id, mask});
    if (it == values_.end()) return false;
    *od = it->second;
    return true;
  }
  void Store(data::PointId id, uint64_t mask, double od) override {
    std::lock_guard<std::mutex> lock(mu_);
    values_[{id, mask}] = od;
  }
  std::map<std::pair<data::PointId, uint64_t>, double> values() const {
    std::lock_guard<std::mutex> lock(mu_);
    return values_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<data::PointId, uint64_t>, double> values_;
};

/// 200 uniform rows in [0, 1]^d plus one far row at 10 in every dimension.
/// With k = 3 and T = kFarThreshold every uniform row is a full-space
/// inlier (OD at most ~6 even at d = 32), and the far row is outlying in
/// every singleton (OD ~27).
constexpr double kFarThreshold = 15.0;

data::Dataset CloudWithFarRow(int d, uint64_t seed) {
  Rng rng(seed);
  data::Dataset ds = data::GenerateUniform(200, d, &rng);
  const std::vector<double> far(static_cast<size_t>(d), 10.0);
  ds.Append(far);
  return ds;
}

std::set<std::string> SpanNames(const obs::QueryTrace& trace) {
  std::set<std::string> names;
  for (const obs::TraceSpan& span : trace.spans) names.insert(span.name);
  return names;
}

// Direct runner-level differential under every level order:
// BatchFrontierRunner blocks against the one-point strategy of the same
// order (the runner at width 1), and both against the exhaustive oracle,
// for batch sizes from 1 to past the planted outlier count. Each point's
// memo must hold exactly the masks and doubles of its one-point walk.
TEST(BatchFrontierTest, RunnerMatchesSequentialWalksUnderEveryOrder) {
  const int d = 7;
  auto generated = MakePlanted(9001, d);
  const data::Dataset& ds = generated.dataset;
  knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  const lattice::PruningPriors priors = lattice::PruningPriors::Flat(d);
  constexpr int kK = 4;
  constexpr double kThreshold = 0.9;
  const uint64_t lattice_top = (uint64_t{1} << d) - 1;

  const DynamicSubspaceSearch dynamic(d, priors);
  const BottomUpSearch bottom_up(d);
  const TopDownSearch top_down(d);
  const std::pair<BatchFrontierRunner, const SubspaceSearch*> orders[] = {
      {BatchFrontierRunner(d, &priors), &dynamic},
      {BatchFrontierRunner(d, BatchFrontierRunner::LevelOrder::kBottomUp),
       &bottom_up},
      {BatchFrontierRunner(d, BatchFrontierRunner::LevelOrder::kTopDown),
       &top_down},
  };

  for (const auto& [runner, strategy] : orders) {
    EXPECT_EQ(runner.name(), strategy->name());
    for (size_t batch : {1u, 3u, 16u}) {
      SCOPED_TRACE(std::string(runner.name()) +
                   " batch=" + std::to_string(batch));
      // Strided background rows, plus the planted outliers (whose walks
      // go deepest) in every block wider than one.
      std::vector<data::PointId> ids;
      for (size_t b = 0; b < batch; ++b) {
        ids.push_back(static_cast<data::PointId>(b * 13 % ds.size()));
      }
      if (batch > 1) {
        for (const auto& outlier : generated.outliers) {
          ids.push_back(outlier.id);
        }
      }
      std::vector<OdEvaluator> evaluators;
      std::vector<OdEvaluator*> pointers;
      evaluators.reserve(ids.size());
      for (data::PointId id : ids) {
        evaluators.emplace_back(engine, ds.Row(id), kK, id);
        pointers.push_back(&evaluators.back());
      }
      auto fused = runner.Run(pointers, kThreshold, SearchExecution{});
      ASSERT_EQ(fused.size(), ids.size());

      for (size_t b = 0; b < ids.size(); ++b) {
        const data::PointId id = ids[b];
        OdEvaluator seq_od(engine, ds.Row(id), kK, id);
        auto seq = strategy->Run(&seq_od, kThreshold);
        ASSERT_TRUE(seq.ok());
        ASSERT_TRUE(fused[b].ok()) << fused[b].status().ToString();
        OdEvaluator oracle_od(engine, ds.Row(id), kK, id);
        auto oracle = ExhaustiveSearch(d).Run(&oracle_od, kThreshold);
        ASSERT_TRUE(oracle.ok());
        EXPECT_EQ(fused[b]->minimal_outlying_subspaces,
                  oracle->minimal_outlying_subspaces);
        EXPECT_EQ(fused[b]->outlier_fraction, oracle->outlier_fraction);
        ExpectOutcomeIdentical(fused[b].value(), seq.value(),
                               "id " + std::to_string(id));
        EXPECT_EQ(pointers[b]->num_evaluations(), seq_od.num_evaluations());
        // The fused evaluator memoised exactly the sequential masks with
        // exactly the sequential doubles.
        for (uint64_t mask = 1; mask <= lattice_top; ++mask) {
          double fused_value = 0.0, seq_value = 0.0;
          const bool fused_has =
              pointers[b]->LookupLocal(mask, &fused_value);
          const bool seq_has = seq_od.LookupLocal(mask, &seq_value);
          ASSERT_EQ(fused_has, seq_has) << "mask " << mask;
          if (fused_has) {
            ASSERT_EQ(fused_value, seq_value) << "mask " << mask;
          }
        }
      }
    }
  }
}

TEST(BatchFrontierTest, EmptyBatchAndPriorsMismatch) {
  const lattice::PruningPriors priors = lattice::PruningPriors::Flat(5);
  const BatchFrontierRunner empty_ok(5, &priors);
  EXPECT_TRUE(empty_ok.Run({}, 1.0, SearchExecution{}).empty());

  // Priors covering the wrong dimensionality fail every slot with the
  // sequential path's InvalidArgument, not a crash.
  auto generated = MakePlanted(9002, 6);
  knn::LinearScanKnn engine(generated.dataset, knn::MetricKind::kL2);
  OdEvaluator od(engine, generated.dataset.Row(0), 3, 0);
  std::vector<OdEvaluator*> pointers = {&od};
  const BatchFrontierRunner mismatched(6, &priors);
  auto results = mismatched.Run(pointers, 1.0, SearchExecution{});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status().IsInvalidArgument())
      << results[0].status().ToString();
}

// Per-point budget exhaustion: under a tight budget each slot must land
// exactly where its sequential run lands — a point whose full-space OD is
// below threshold settles the whole lattice in one evaluation and
// succeeds, while a point that needs a wide level fails with the identical
// ResourceExhausted message. The mix inside one fused batch is the case
// that matters: an exhausted point must not take its healthy batch-mates
// down with it.
TEST(BatchFrontierTest, BudgetExhaustionMatchesSequentialPerPoint) {
  const int d = 6;
  auto generated = MakePlanted(9003, d);
  knn::LinearScanKnn engine(generated.dataset, knn::MetricKind::kL2);
  const lattice::PruningPriors priors = lattice::PruningPriors::Flat(d);
  const DynamicSubspaceSearch sequential(d, priors);
  const BatchFrontierRunner runner(d, &priors);

  SearchExecution exec;
  exec.max_od_evaluations = 2;  // narrower than level 1's six subspaces

  // Two quiet inliers plus a planted outlier: the outlier's walk must
  // descend into wide levels to isolate the minimal subspaces, which a
  // 2-evaluation budget cannot cover.
  ASSERT_FALSE(generated.outliers.empty());
  const std::vector<data::PointId> points = {0, 1, generated.outliers[0].id};
  std::vector<OdEvaluator> evaluators;
  std::vector<OdEvaluator*> pointers;
  evaluators.reserve(points.size());
  for (data::PointId id : points) {
    evaluators.emplace_back(engine, generated.dataset.Row(id), 3, id);
    pointers.push_back(&evaluators.back());
  }
  auto fused = runner.Run(pointers, 0.9, exec);
  ASSERT_EQ(fused.size(), points.size());
  size_t exhausted = 0;
  size_t succeeded = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(points[i]));
    OdEvaluator seq_od(engine, generated.dataset.Row(points[i]), 3, points[i]);
    auto seq = sequential.Run(&seq_od, 0.9, exec);
    ASSERT_EQ(fused[i].ok(), seq.ok()) << fused[i].status().ToString();
    if (seq.ok()) {
      ++succeeded;
      ExpectOutcomeIdentical(fused[i].value(), seq.value(),
                             "point " + std::to_string(points[i]));
    } else {
      ++exhausted;
      EXPECT_TRUE(seq.status().IsResourceExhausted())
          << seq.status().ToString();
      EXPECT_EQ(fused[i].status().ToString(), seq.status().ToString());
    }
  }
  // The seed produces the mixed batch this test is about: at least one
  // budget failure co-scheduled with at least one success.
  EXPECT_GE(exhausted, 1u);
  EXPECT_GE(succeeded, 1u);
}

// Copy on first write, end to end. One fused block holds full-space
// inliers (which retire on the shared inlier lattice and never build a
// store), the far outlier (which takes a store of its own after its first
// round) and an inlier whose full-space OD comes from the shared store.
// Each point must come out exactly as it does run alone: answers, counters
// and the names of the spans it traces.
TEST(BatchFrontierTest, InliersRetireOnTheSharedLatticeBesideAnOutlier) {
  constexpr int kK = 3;
  for (int d : {1, 8, 32}) {
    const data::Dataset ds = CloudWithFarRow(d, 9600 + d);
    const auto far = static_cast<data::PointId>(ds.size() - 1);
    const data::PointId hit = 5;
    const std::vector<data::PointId> ids = {0, far, hit, 1};
    const knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
    const lattice::PruningPriors priors = lattice::PruningPriors::Flat(d);
    const BatchFrontierRunner runner(d, &priors);
    const DynamicSubspaceSearch alone(d, priors);
    const Subspace full = Subspace::Full(d);
    // A store that already holds the `hit` row's full-space OD.
    const auto seeded_store = [&] {
      auto store = std::make_unique<MapStore>();
      OdEvaluator probe(engine, ds.Row(hit), kK, hit);
      store->Store(hit, full.mask(), probe.Evaluate(full));
      return store;
    };

    SCOPED_TRACE("d=" + std::to_string(d));
    const auto store = seeded_store();
    obs::QueryTracer tracer;
    SearchExecution exec;
    exec.tracer = &tracer;
    std::vector<OdEvaluator> evaluators;
    std::vector<OdEvaluator*> pointers;
    evaluators.reserve(ids.size());
    for (data::PointId id : ids) {
      evaluators.emplace_back(engine, ds.Row(id), kK, id, store.get());
      pointers.push_back(&evaluators.back());
    }
    auto fused = runner.Run(pointers, kFarThreshold, exec);
    const obs::QueryTrace fused_trace = tracer.Finish();
    ASSERT_EQ(fused.size(), ids.size());

    uint64_t max_steps = 0;
    std::set<std::string> alone_names;
    for (size_t i = 0; i < ids.size(); ++i) {
      SCOPED_TRACE("id " + std::to_string(ids[i]));
      const auto alone_store = seeded_store();
      obs::QueryTracer alone_tracer;
      SearchExecution alone_exec = exec;
      alone_exec.tracer = &alone_tracer;
      OdEvaluator od(engine, ds.Row(ids[i]), kK, ids[i], alone_store.get());
      auto seq = alone.Run(&od, kFarThreshold, alone_exec);
      const obs::QueryTrace alone_trace = alone_tracer.Finish();
      ASSERT_TRUE(seq.ok()) << seq.status().ToString();
      ASSERT_TRUE(fused[i].ok()) << fused[i].status().ToString();
      ExpectOutcomeIdentical(fused[i].value(), seq.value(), "fused");
      EXPECT_EQ(alone_trace.CountByName("dynamic"), 1u);
      EXPECT_EQ(alone_trace.CountByName("wave"), seq->counters.steps);
      const std::set<std::string> names = SpanNames(alone_trace);
      alone_names.insert(names.begin(), names.end());
      max_steps = std::max(max_steps, seq->counters.steps);

      const SearchCounters& c = fused[i]->counters;
      if (ids[i] == far) {
        EXPECT_EQ(fused[i]->minimal_outlying_subspaces.size(),
                  static_cast<size_t>(d));
        EXPECT_EQ(c.steps, d == 1 ? 1u : 2u);
      } else {
        EXPECT_TRUE(fused[i]->minimal_outlying_subspaces.empty());
        EXPECT_EQ(c.od_evaluations, ids[i] == hit ? 0u : 1u);
        EXPECT_EQ(c.pruned_upward, 0u);
        EXPECT_EQ(c.pruned_downward, (uint64_t{1} << d) - 2);
        EXPECT_EQ(c.steps, 1u);
        EXPECT_EQ(fused[i]->TotalOutlyingCount(), 0u);
      }
      if (d <= 8) {
        OdEvaluator oracle_od(engine, ds.Row(ids[i]), kK, ids[i]);
        auto oracle = ExhaustiveSearch(d).Run(&oracle_od, kFarThreshold);
        ASSERT_TRUE(oracle.ok());
        EXPECT_EQ(fused[i]->minimal_outlying_subspaces,
                  oracle->minimal_outlying_subspaces);
        EXPECT_EQ(fused[i]->outlier_fraction, oracle->outlier_fraction);
      }
    }
    // One strategy span, one wave per round of the longest walk, and one
    // fused kNN pass per distinct computed mask: the full space (the
    // `hit` row's comes from the store), then the far row's singletons.
    EXPECT_EQ(SpanNames(fused_trace), alone_names);
    EXPECT_EQ(fused_trace.CountByName("dynamic"), 1u);
    EXPECT_EQ(fused_trace.CountByName("wave"), max_steps);
    EXPECT_EQ(fused_trace.CountByName("knn"),
              1u + (d == 1 ? 0u : static_cast<size_t>(d)));
  }
}

// OD >= T is outlying, so a full-space OD exactly at T must not retire a
// walk on the shared inlier lattice: the walk goes on in a store of its
// own and finds what the oracle finds.
TEST(BatchFrontierTest, FullSpaceOdAtTheThresholdKeepsWalking) {
  const int d = 8;
  constexpr int kK = 3;
  const data::Dataset ds = CloudWithFarRow(d, 9800);
  const knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  const lattice::PruningPriors priors = lattice::PruningPriors::Flat(d);
  const BatchFrontierRunner runner(d, &priors);
  const DynamicSubspaceSearch alone(d, priors);
  OdEvaluator probe(engine, ds.Row(0), kK, 0);
  const double threshold = probe.Evaluate(Subspace::Full(d));

  const std::vector<data::PointId> ids = {0, 1, 2};
  std::vector<OdEvaluator> evaluators;
  std::vector<OdEvaluator*> pointers;
  evaluators.reserve(ids.size());
  for (data::PointId id : ids) {
    evaluators.emplace_back(engine, ds.Row(id), kK, id);
    pointers.push_back(&evaluators.back());
  }
  auto fused = runner.Run(pointers, threshold, SearchExecution{});
  ASSERT_EQ(fused.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE("id " + std::to_string(ids[i]));
    ASSERT_TRUE(fused[i].ok()) << fused[i].status().ToString();
    OdEvaluator od(engine, ds.Row(ids[i]), kK, ids[i]);
    auto seq = alone.Run(&od, threshold);
    ASSERT_TRUE(seq.ok());
    ExpectOutcomeIdentical(fused[i].value(), seq.value(), "at threshold");
    OdEvaluator oracle_od(engine, ds.Row(ids[i]), kK, ids[i]);
    auto oracle = ExhaustiveSearch(d).Run(&oracle_od, threshold);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(fused[i]->minimal_outlying_subspaces,
              oracle->minimal_outlying_subspaces);
    EXPECT_EQ(fused[i]->outlier_fraction, oracle->outlier_fraction);
  }
  EXPECT_TRUE(fused[0]->IsOutlying(Subspace::Full(d)));
  EXPECT_GT(fused[0]->counters.steps, 1u);
}

// The conservative filter may decide a clear inlier's full space itself:
// the verdict enters the walk as a -inf sentinel instead of an OD. The
// point must still retire on the shared inlier lattice after one round,
// with the decision counted as a bound decision and no OD evaluated, and
// with the answer of the filter-off walk.
TEST(BatchFrontierTest, FilterDecidedFullSpaceStillRetiresTheInlier) {
  const int d = 8;
  constexpr int kK = 3;
  const data::Dataset ds = CloudWithFarRow(d, 9700);
  const auto far = static_cast<data::PointId>(ds.size() - 1);
  const knn::LinearScanKnn engine(ds, knn::MetricKind::kL2);
  const filter::DensityBoundFilter filter(
      ds, knn::MetricKind::kL2,
      filter::DensitySummary::Build(ds, /*bits_per_dim=*/8));
  const lattice::PruningPriors priors = lattice::PruningPriors::Flat(d);
  const BatchFrontierRunner runner(d, &priors);
  const DynamicSubspaceSearch alone(d, priors);

  SearchExecution exec;
  exec.filter = &filter;
  exec.filter_mode = filter::FilterMode::kConservative;
  const std::vector<data::PointId> ids = {0, 1, 2, 3, far};
  std::vector<OdEvaluator> evaluators;
  std::vector<OdEvaluator*> pointers;
  evaluators.reserve(ids.size());
  for (data::PointId id : ids) {
    evaluators.emplace_back(engine, ds.Row(id), kK, id);
    pointers.push_back(&evaluators.back());
  }
  auto fused = runner.Run(pointers, kFarThreshold, exec);
  ASSERT_EQ(fused.size(), ids.size());

  size_t filter_decided_inliers = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE("id " + std::to_string(ids[i]));
    ASSERT_TRUE(fused[i].ok()) << fused[i].status().ToString();
    OdEvaluator od(engine, ds.Row(ids[i]), kK, ids[i]);
    auto seq = alone.Run(&od, kFarThreshold, exec);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    ExpectOutcomeIdentical(fused[i].value(), seq.value(), "filtered");
    OdEvaluator off_od(engine, ds.Row(ids[i]), kK, ids[i]);
    auto off = alone.Run(&off_od, kFarThreshold);
    ASSERT_TRUE(off.ok());
    EXPECT_EQ(fused[i]->minimal_outlying_subspaces,
              off->minimal_outlying_subspaces);
    EXPECT_EQ(fused[i]->outlier_fraction, off->outlier_fraction);

    const SearchCounters& c = fused[i]->counters;
    if (ids[i] != far && c.bound_decisions == 1) {
      ++filter_decided_inliers;
      EXPECT_EQ(c.od_evaluations, 0u);
      EXPECT_EQ(c.pruned_downward, (uint64_t{1} << d) - 2);
      EXPECT_EQ(c.steps, 1u);
    }
  }
  EXPECT_GE(filter_decided_inliers, 1u);
}

// Miner-level differential: QueryBatchFused against per-point Query across
// both kNN engine layouts and both answer-preserving filter modes, each
// side writing through a store of its own, so their fresh evaluations are
// compared value by value too. This is the exact contract the service
// layer's fused QueryBatch relies on.
class QueryBatchFusedTest : public ::testing::TestWithParam<core::IndexKind> {
};

TEST_P(QueryBatchFusedTest, MatchesPerPointQueries) {
  auto generated = MakePlanted(9100, 6);
  core::HosMinerConfig config;
  config.index = GetParam();
  config.k = 4;
  auto miner = core::HosMiner::Build(std::move(generated.dataset), config);
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();

  std::vector<data::PointId> ids;
  for (data::PointId id = 0; id < 40; ++id) ids.push_back(id);
  ids.push_back(generated.outliers[0].id);

  for (filter::FilterMode mode :
       {filter::FilterMode::kOff, filter::FilterMode::kConservative}) {
    // The bound-margin frontier ordering only applies with the filter
    // on; it is stateless, so the fused/sequential counter identity must
    // survive it unchanged. (The learned gate is *stateful* across
    // queries on one miner and gets its own answers-only test below.)
    for (bool ordered : {false, true}) {
      if (ordered && mode == filter::FilterMode::kOff) continue;
      SCOPED_TRACE("filter=" + std::to_string(static_cast<int>(mode)) +
                   " ordered=" + std::to_string(ordered));
      core::QueryOptions options;
      options.filter_mode = mode;
      if (ordered) {
        options.frontier_ordering = FrontierOrdering::kBoundMargin;
      }
      MapStore fused_store;
      core::QueryOptions fused_options = options;
      fused_options.od_store = &fused_store;
      MapStore seq_store;
      core::QueryOptions seq_options = options;
      seq_options.od_store = &seq_store;

      auto fused = miner->QueryBatchFused(ids, fused_options);
      ASSERT_EQ(fused.size(), ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        auto seq = miner->Query(ids[i], seq_options);
        ASSERT_TRUE(seq.ok()) << seq.status().ToString();
        ASSERT_TRUE(fused[i].ok()) << fused[i].status().ToString();
        ExpectOutcomeIdentical(fused[i].value().outcome, seq->outcome,
                               "id " + std::to_string(ids[i]));
        EXPECT_EQ(fused[i].value().dataset_version, seq->dataset_version);
      }
      // Every fresh evaluation reached the store once per (point, mask),
      // with bitwise-identical values.
      EXPECT_EQ(fused_store.values(), seq_store.values());
    }
  }
}

// The learned per-level gate carries EWMA state across every query a miner
// serves, so fused and sequential runs see different gate states and their
// work *distribution* may differ — but conservative-mode answers must stay
// bitwise the filter-off ones no matter what the gate does, fused or not.
// The gate is pre-trained to all-undecided rates so the skip path really
// runs (a fresh gate would pass every consult through during warmup).
TEST_P(QueryBatchFusedTest, LearnedGateNeverChangesConservativeAnswers) {
  auto generated = MakePlanted(9400, 6);
  core::HosMinerConfig config;
  config.index = GetParam();
  config.k = 4;
  auto miner = core::HosMiner::Build(std::move(generated.dataset), config);
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();

  std::vector<data::PointId> ids;
  for (data::PointId id = 0; id < 24; ++id) ids.push_back(id);
  ids.push_back(generated.outliers[0].id);

  std::vector<std::vector<Subspace>> expected;
  for (data::PointId id : ids) {
    auto off = miner->Query(id);
    ASSERT_TRUE(off.ok());
    expected.push_back(off->outcome.minimal_outlying_subspaces);
  }

  filter::FilterGate* gate = miner->filter_gate();
  ASSERT_NE(gate, nullptr);
  for (int level = 1; level <= miner->num_dims(); ++level) {
    for (int i = 0; i < 128; ++i) gate->RecordRefined(level, false);
  }

  core::QueryOptions options;
  options.filter_mode = filter::FilterMode::kConservative;
  options.filter_gate = true;
  options.frontier_ordering = FrontierOrdering::kBoundMargin;
  uint64_t total_gate_skips = 0;
  auto fused = miner->QueryBatchFused(ids, options);
  ASSERT_EQ(fused.size(), ids.size());
  const uint64_t lattice =
      (uint64_t{1} << static_cast<unsigned>(miner->num_dims())) - 1;
  for (size_t i = 0; i < ids.size(); ++i) {
    SCOPED_TRACE("id " + std::to_string(ids[i]));
    ASSERT_TRUE(fused[i].ok()) << fused[i].status().ToString();
    const auto& outcome = fused[i].value().outcome;
    EXPECT_EQ(outcome.minimal_outlying_subspaces, expected[i]);
    // Closure holds with the gate in the loop: a skipped refined pass just
    // moves a mask from bound_decisions to od_evaluations.
    EXPECT_EQ(outcome.counters.od_evaluations +
                  outcome.counters.pruned_upward +
                  outcome.counters.pruned_downward +
                  outcome.counters.bound_decisions,
              lattice);
    EXPECT_EQ(outcome.counters.risky_decisions, 0u);
    total_gate_skips += outcome.counters.gate_skips;
  }
  // The trained gate must have actually suppressed refined passes.
  EXPECT_GT(total_gate_skips, 0u);
}

TEST_P(QueryBatchFusedTest, InvalidSlotsFailAloneAndExactlyLikeQuery) {
  auto generated = MakePlanted(9200, 5);
  core::HosMinerConfig config;
  config.index = GetParam();
  auto miner = core::HosMiner::Build(std::move(generated.dataset), config);
  ASSERT_TRUE(miner.ok());
  const auto tombstoned = static_cast<data::PointId>(7);
  ASSERT_TRUE(miner->Delete(std::vector<data::PointId>{tombstoned}).ok());

  const data::PointId out_of_range = miner->dataset().size() + 5;
  std::vector<data::PointId> ids = {0, out_of_range, tombstoned, 1};
  auto fused = miner->QueryBatchFused(ids, {});
  ASSERT_EQ(fused.size(), 4u);

  // Error slots carry the exact per-point statuses...
  auto seq_oor = miner->Query(out_of_range);
  auto seq_dead = miner->Query(tombstoned);
  EXPECT_TRUE(fused[1].status().IsOutOfRange());
  EXPECT_EQ(fused[1].status().ToString(), seq_oor.status().ToString());
  EXPECT_TRUE(fused[2].status().IsNotFound());
  EXPECT_EQ(fused[2].status().ToString(), seq_dead.status().ToString());
  // Both forms run the same checks, so also pin the texts themselves.
  EXPECT_EQ(fused[1].status().message(),
            "point id " + std::to_string(out_of_range) +
                " outside dataset of size " +
                std::to_string(miner->dataset().size()));
  EXPECT_EQ(fused[2].status().message(),
            "point id 7 was deleted/evicted from the window");

  // ...and the healthy batch-mates are answered identically regardless.
  for (size_t i : {size_t{0}, size_t{3}}) {
    auto seq = miner->Query(ids[i]);
    ASSERT_TRUE(seq.ok());
    ASSERT_TRUE(fused[i].ok());
    ExpectOutcomeIdentical(fused[i].value().outcome, seq->outcome,
                           "id " + std::to_string(ids[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, QueryBatchFusedTest,
    ::testing::Values(core::IndexKind::kLinearScan, core::IndexKind::kXTree),
    [](const auto& info) {
      switch (info.param) {
        case core::IndexKind::kLinearScan:
          return "linear";
        case core::IndexKind::kXTree:
          return "xtree";
      }
      return "unknown";
    });

// The adversarial generator's scenarios — near-threshold OD bands,
// correlated dimensions, duplicates and tombstones — are exactly where a
// fused path that shared the wrong state would first diverge. Probes
// straddle the threshold by a few percent, so even a one-ulp OD deviation
// flips verdicts.
TEST(QueryBatchFusedAdversarialTest, ProbesMatchPerPointQueries) {
  testutil::AdversarialSpec spec;
  spec.num_dims = 6;
  spec.seed = 4242;
  testutil::AdversarialDataset scenario = testutil::MakeAdversarial(spec);

  core::HosMinerConfig config;
  config.k = scenario.k;
  config.threshold = scenario.threshold;
  config.normalization = data::NormalizationKind::kNone;
  config.index = core::IndexKind::kXTree;
  auto miner =
      core::HosMiner::Build(testutil::ToDataset(scenario), config);
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();
  ASSERT_TRUE(miner->Delete(scenario.tombstones).ok());

  std::vector<data::PointId> ids = scenario.probes;
  ids.push_back(5);  // background row amid the correlated cloud

  auto fused = miner->QueryBatchFused(ids, {});
  ASSERT_EQ(fused.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    auto seq = miner->Query(ids[i]);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    ASSERT_TRUE(fused[i].ok()) << fused[i].status().ToString();
    ExpectOutcomeIdentical(fused[i].value().outcome, seq->outcome,
                           "probe id " + std::to_string(ids[i]));
  }
}

// ScreenBatch (and so ScreenOutliers/TopOutliers, which are built on it)
// must produce the exact full-space OD doubles the per-point path does.
TEST(ScreenBatchTest, BitwiseIdenticalToPerPointOutlyingDegree) {
  auto generated = MakePlanted(9300, 6);
  core::HosMinerConfig config;
  config.k = 4;
  auto miner = core::HosMiner::Build(std::move(generated.dataset), config);
  ASSERT_TRUE(miner.ok());

  std::vector<data::PointId> ids;
  for (data::PointId id = 0; id < miner->dataset().size(); id += 3) {
    ids.push_back(id);
  }
  const std::vector<double> fused = miner->ScreenBatch(ids);
  ASSERT_EQ(fused.size(), ids.size());

  const Subspace full((uint64_t{1} << miner->num_dims()) - 1);
  for (size_t i = 0; i < ids.size(); ++i) {
    knn::KnnQuery query;
    query.point = miner->dataset().Row(ids[i]);
    query.subspace = full;
    query.k = config.k;
    query.exclude = ids[i];
    EXPECT_EQ(fused[i], knn::OutlyingDegree(miner->engine(), query))
        << "id " << ids[i];
  }
}

// TopOutliersWithSubspaces seeds each ranked point's lattice walk with the
// full-space OD the screening pass already paid for. The seed enters the
// evaluator's memo before the walk starts, so answers are bitwise the
// plain Query's while the walk never re-evaluates the full mask — the
// seeded walk's fresh-evaluation count can only be lower or equal.
TEST(TopOutliersWithSubspacesTest, SeededWalksMatchPerPointQueries) {
  auto generated = MakePlanted(9500, 6);
  core::HosMinerConfig config;
  config.k = 4;
  auto miner = core::HosMiner::Build(std::move(generated.dataset), config);
  ASSERT_TRUE(miner.ok()) << miner.status().ToString();

  const auto top = miner->TopOutliersWithSubspaces(6);
  ASSERT_FALSE(top.empty());
  const Subspace full((uint64_t{1} << miner->num_dims()) - 1);
  for (const auto& entry : top) {
    SCOPED_TRACE("id " + std::to_string(entry.id));
    ASSERT_TRUE(entry.result.ok()) << entry.result.status().ToString();
    const auto& seeded = entry.result.value().outcome;

    // The carried full-space OD is the exact per-point double.
    knn::KnnQuery query;
    query.point = miner->dataset().Row(entry.id);
    query.subspace = full;
    query.k = config.k;
    query.exclude = entry.id;
    EXPECT_EQ(entry.full_space_od,
              knn::OutlyingDegree(miner->engine(), query));

    auto seq = miner->Query(entry.id);
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    EXPECT_EQ(seeded.minimal_outlying_subspaces,
              seq->outcome.minimal_outlying_subspaces);
    EXPECT_EQ(seeded.evaluated_outliers, seq->outcome.evaluated_outliers);
    EXPECT_EQ(seeded.outlier_fraction, seq->outcome.outlier_fraction);
    EXPECT_EQ(seeded.counters.pruned_upward,
              seq->outcome.counters.pruned_upward);
    EXPECT_EQ(seeded.counters.pruned_downward,
              seq->outcome.counters.pruned_downward);
    EXPECT_EQ(seeded.counters.steps, seq->outcome.counters.steps);
    EXPECT_LE(seeded.counters.od_evaluations,
              seq->outcome.counters.od_evaluations);
  }
}

}  // namespace
}  // namespace hos::search
