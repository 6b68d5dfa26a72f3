// The density-bound pre-filter's exactness contract, end to end — the
// headline harness of the pre-filter. For both kNN backends a miner can
// serve ({linear scan, X-tree}; the full-space mask is also held to the
// contract at the engine level below), both lattice stores, and both a
// random planted-outlier dataset and an adversarially generated one
// (near-threshold OD bands, correlated dimensions, duplicates, tombstones —
// see tests/testutil/adversarial_gen.h):
//
//  * FilterMode::kConservative must be *bitwise identical* to kOff: same
//    minimal outlying subspaces, same per-mask verdict over the whole
//    lattice, same order-sensitive evaluated_outliers list, same pruning
//    and step counters — while od_evaluations drops by exactly
//    bound_decisions (the sum identity), and the closure identity
//    od + pruned_up + pruned_down + bound_decisions == 2^d - 1 holds.
//  * FilterMode::kSpeculative may mis-decide near-threshold subspaces, but
//    must be *honest* about it: whenever any verdict differs from kOff the
//    result carries risky_decisions > 0 and bound_gap > 0; conversely
//    bound_gap == 0 certifies the answer matched kOff exactly.
//  * The filter must actually fire: across the query set, conservative
//    mode's summed bound_decisions is > 0 (the contract is not allowed to
//    hold vacuously).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/hos_miner.h"
#include "src/data/dataset.h"
#include "src/data/generator.h"
#include "src/filter/density_filter.h"
#include "src/filter/density_summary.h"
#include "src/filter/filter_gate.h"
#include "src/knn/linear_scan.h"
#include "tests/testutil/adversarial_gen.h"

namespace hos {
namespace {

struct Scenario {
  std::string name;
  core::HosMiner miner;
  std::vector<data::PointId> queries;
};

core::HosMinerConfig BaseConfig(core::IndexKind index) {
  core::HosMinerConfig config;
  config.k = 4;
  config.threshold = 1.1;
  config.index = index;
  config.sample_size = 4;
  config.seed = 42;
  return config;
}

/// Random arm: the planted-subspace generator the strategy differential
/// suite uses (min-max normalized, so the filter's quantization sees the
/// same coordinates the kNN path does).
Scenario RandomScenario(core::IndexKind index) {
  Rng rng(1006);
  data::SubspaceOutlierSpec spec;
  spec.num_points = 110;
  spec.num_dims = 6;
  spec.planted_subspaces = {Subspace::FromOneBased({1, 2}),
                            Subspace::FromOneBased({3, 4, 5})};
  spec.displacement = 0.5;
  auto generated = data::GenerateSubspaceOutliers(spec, &rng);
  EXPECT_TRUE(generated.ok()) << generated.status().ToString();

  std::vector<data::PointId> queries;
  for (const auto& planted : generated->outliers) queries.push_back(planted.id);
  queries.push_back(0);  // a background inlier
  queries.push_back(57);

  auto built =
      core::HosMiner::Build(std::move(generated->dataset), BaseConfig(index));
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return {"random", std::move(built).value(), std::move(queries)};
}

/// Adversarial arm: near-threshold bands + correlated dims + duplicates,
/// with the tombstone set applied after Build AND the incremental tally
/// hooks disabled, so the filter's summary is stale in exactly the way the
/// pre-incremental rebuild-era semantics leave it (the synced incremental
/// path has its own windowed suites). Normalization off and the
/// generator's own threshold, so the bands stay near T.
Scenario AdversarialScenario(core::IndexKind index) {
  testutil::AdversarialSpec spec;
  spec.seed = 77;
  testutil::AdversarialDataset scenario = testutil::MakeAdversarial(spec);

  core::HosMinerConfig config = BaseConfig(index);
  config.incremental_filter_tallies = false;
  config.k = scenario.k;
  config.threshold = scenario.threshold;
  config.normalization = data::NormalizationKind::kNone;
  // Un-normalized coordinates span ~[0, 3]: keep the quantization cells
  // fine enough (2^8 per dim) that bounds stay meaningful against the
  // generator's T.
  config.filter_bits_per_dim = 8;

  auto built = core::HosMiner::Build(testutil::ToDataset(scenario), config);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  core::HosMiner miner = std::move(built).value();
  EXPECT_TRUE(miner.Delete(scenario.tombstones).ok());

  std::vector<data::PointId> queries = scenario.probes;
  queries.push_back(5);   // background (live; tombstone stride starts at 2)
  queries.push_back(12);  // background near a duplicate pair
  return {"adversarial", std::move(miner), std::move(queries)};
}

/// Per-mask verdicts over the whole lattice, from the refined answer.
std::vector<bool> VerdictVector(const core::QueryResult& result, int d) {
  const uint64_t lattice = (uint64_t{1} << d) - 1;
  std::vector<bool> verdicts(lattice + 1, false);
  for (uint64_t mask = 1; mask <= lattice; ++mask) {
    verdicts[mask] = result.outcome.IsOutlying(Subspace(mask));
  }
  return verdicts;
}

class FilterDifferentialTest
    : public ::testing::TestWithParam<core::IndexKind> {};

TEST_P(FilterDifferentialTest, ConservativeIsBitwiseOffAndSpeculativeIsHonest) {
  std::vector<Scenario> scenarios;
  scenarios.push_back(RandomScenario(GetParam()));
  scenarios.push_back(AdversarialScenario(GetParam()));

  for (Scenario& scenario : scenarios) {
    SCOPED_TRACE("scenario=" + scenario.name);
    const int d = scenario.miner.num_dims();
    const uint64_t lattice = (uint64_t{1} << d) - 1;

    for (lattice::LatticeBackend backend :
         {lattice::LatticeBackend::kDense, lattice::LatticeBackend::kSparse}) {
      SCOPED_TRACE(backend == lattice::LatticeBackend::kDense ? "dense"
                                                              : "sparse");
      uint64_t total_bound_decisions = 0;

      for (data::PointId id : scenario.queries) {
        SCOPED_TRACE("query id=" + std::to_string(id));
        core::QueryOptions off_opts;
        off_opts.lattice_backend = backend;
        core::QueryOptions cons_opts = off_opts;
        cons_opts.filter_mode = filter::FilterMode::kConservative;
        core::QueryOptions spec_opts = off_opts;
        spec_opts.filter_mode = filter::FilterMode::kSpeculative;

        auto off = scenario.miner.Query(id, off_opts);
        auto cons = scenario.miner.Query(id, cons_opts);
        auto spec = scenario.miner.Query(id, spec_opts);
        ASSERT_TRUE(off.ok()) << off.status().ToString();
        ASSERT_TRUE(cons.ok()) << cons.status().ToString();
        ASSERT_TRUE(spec.ok()) << spec.status().ToString();

        // --- kOff sanity: the filter counters stay untouched.
        EXPECT_EQ(off->outcome.counters.bound_decisions, 0u);
        EXPECT_EQ(off->outcome.counters.risky_decisions, 0u);
        EXPECT_EQ(off->outcome.counters.bound_gap, 0.0);

        // --- Conservative: bitwise identical answers.
        EXPECT_EQ(cons->outcome.minimal_outlying_subspaces,
                  off->outcome.minimal_outlying_subspaces);
        EXPECT_EQ(cons->outcome.evaluated_outliers,
                  off->outcome.evaluated_outliers);
        EXPECT_EQ(cons->outcome.outlier_fraction,
                  off->outcome.outlier_fraction);
        EXPECT_EQ(VerdictVector(*cons, d), VerdictVector(*off, d));
        // Order-independent counters unchanged; exact evaluations drop by
        // exactly the bound-decided count (the sum identity).
        EXPECT_EQ(cons->outcome.counters.pruned_upward,
                  off->outcome.counters.pruned_upward);
        EXPECT_EQ(cons->outcome.counters.pruned_downward,
                  off->outcome.counters.pruned_downward);
        EXPECT_EQ(cons->outcome.counters.steps, off->outcome.counters.steps);
        EXPECT_EQ(off->outcome.counters.od_evaluations,
                  cons->outcome.counters.od_evaluations +
                      cons->outcome.counters.bound_decisions);
        // Conservative decisions are proofs, never risks.
        EXPECT_EQ(cons->outcome.counters.risky_decisions, 0u);
        EXPECT_EQ(cons->outcome.counters.bound_gap, 0.0);
        // Closure identity with the filter in the loop.
        EXPECT_EQ(cons->outcome.counters.od_evaluations +
                      cons->outcome.counters.pruned_upward +
                      cons->outcome.counters.pruned_downward +
                      cons->outcome.counters.bound_decisions,
                  lattice);
        total_bound_decisions += cons->outcome.counters.bound_decisions;

        // --- Speculative: closure still holds, and the report is honest.
        EXPECT_EQ(spec->outcome.counters.od_evaluations +
                      spec->outcome.counters.pruned_upward +
                      spec->outcome.counters.pruned_downward +
                      spec->outcome.counters.bound_decisions,
                  lattice);
        EXPECT_GE(spec->outcome.counters.bound_decisions,
                  spec->outcome.counters.risky_decisions);
        const bool answers_differ =
            VerdictVector(*spec, d) != VerdictVector(*off, d) ||
            spec->outcome.minimal_outlying_subspaces !=
                off->outcome.minimal_outlying_subspaces;
        if (answers_differ) {
          // A flipped answer must be accompanied by a nonzero reported gap
          // and at least one declared risky decision.
          EXPECT_GT(spec->outcome.counters.risky_decisions, 0u);
          EXPECT_GT(spec->outcome.counters.bound_gap, 0.0);
        }
        if (spec->outcome.counters.bound_gap == 0.0) {
          // gap == 0 certifies bitwise equality with kOff.
          EXPECT_EQ(spec->outcome.counters.risky_decisions, 0u);
          EXPECT_FALSE(answers_differ);
          EXPECT_EQ(spec->outcome.evaluated_outliers,
                    off->outcome.evaluated_outliers);
        }
      }

      // The contract must not hold vacuously: across the query set the
      // conservative filter decided at least some subspaces without a kNN
      // call.
      EXPECT_GT(total_bound_decisions, 0u)
          << "the pre-filter never fired on scenario " << scenario.name;
    }
  }
}

// The bound-margin frontier ordering reorders only the exact-evaluation
// dispatch inside a level — the lattice merge stays canonical — so every
// field of the outcome, including the order-sensitive evaluated_outliers
// list and the full counter set, must be bitwise the canonical-order
// run's, in both filter modes, on both scenario arms.
TEST_P(FilterDifferentialTest, BoundMarginOrderingIsExecutionOnly) {
  std::vector<Scenario> scenarios;
  scenarios.push_back(RandomScenario(GetParam()));
  scenarios.push_back(AdversarialScenario(GetParam()));

  for (Scenario& scenario : scenarios) {
    SCOPED_TRACE("scenario=" + scenario.name);
    const int d = scenario.miner.num_dims();
    const uint64_t lattice = (uint64_t{1} << d) - 1;
    for (filter::FilterMode mode : {filter::FilterMode::kConservative,
                                    filter::FilterMode::kSpeculative}) {
      SCOPED_TRACE(mode == filter::FilterMode::kConservative
                       ? "conservative"
                       : "speculative");
      for (data::PointId id : scenario.queries) {
        SCOPED_TRACE("query id=" + std::to_string(id));
        core::QueryOptions canonical;
        canonical.filter_mode = mode;
        core::QueryOptions ordered = canonical;
        ordered.frontier_ordering = search::FrontierOrdering::kBoundMargin;

        auto canon = scenario.miner.Query(id, canonical);
        auto ord = scenario.miner.Query(id, ordered);
        ASSERT_TRUE(canon.ok()) << canon.status().ToString();
        ASSERT_TRUE(ord.ok()) << ord.status().ToString();

        EXPECT_EQ(ord->outcome.minimal_outlying_subspaces,
                  canon->outcome.minimal_outlying_subspaces);
        EXPECT_EQ(ord->outcome.evaluated_outliers,
                  canon->outcome.evaluated_outliers);
        EXPECT_EQ(ord->outcome.outlier_fraction,
                  canon->outcome.outlier_fraction);
        EXPECT_EQ(VerdictVector(*ord, d), VerdictVector(*canon, d));
        EXPECT_EQ(ord->outcome.counters.od_evaluations,
                  canon->outcome.counters.od_evaluations);
        EXPECT_EQ(ord->outcome.counters.pruned_upward,
                  canon->outcome.counters.pruned_upward);
        EXPECT_EQ(ord->outcome.counters.pruned_downward,
                  canon->outcome.counters.pruned_downward);
        EXPECT_EQ(ord->outcome.counters.steps,
                  canon->outcome.counters.steps);
        EXPECT_EQ(ord->outcome.counters.bound_decisions,
                  canon->outcome.counters.bound_decisions);
        EXPECT_EQ(ord->outcome.counters.risky_decisions,
                  canon->outcome.counters.risky_decisions);
        EXPECT_EQ(ord->outcome.counters.bound_gap,
                  canon->outcome.counters.bound_gap);
        EXPECT_EQ(ord->outcome.counters.od_evaluations +
                      ord->outcome.counters.pruned_upward +
                      ord->outcome.counters.pruned_downward +
                      ord->outcome.counters.bound_decisions,
                  lattice);
      }
    }
  }
}

// The learned per-level gate may redistribute work (a suppressed refined
// pass sends its mask to the exact path) but must never change a
// conservative answer. The gate is pre-trained to all-undecided refined
// rates so the skip branch is guaranteed to run — and then must actually
// fire (gate_skips > 0 somewhere), since near-threshold masks that the
// coarse tier cannot decide exist on both scenario arms.
TEST_P(FilterDifferentialTest, LearnedGateKeepsConservativeAnswersBitwise) {
  std::vector<Scenario> scenarios;
  scenarios.push_back(RandomScenario(GetParam()));
  scenarios.push_back(AdversarialScenario(GetParam()));

  uint64_t total_gate_skips = 0;
  for (Scenario& scenario : scenarios) {
    SCOPED_TRACE("scenario=" + scenario.name);
    const int d = scenario.miner.num_dims();
    const uint64_t lattice = (uint64_t{1} << d) - 1;

    filter::FilterGate* gate = scenario.miner.filter_gate();
    ASSERT_NE(gate, nullptr);
    for (int level = 1; level <= d; ++level) {
      for (int i = 0; i < 128; ++i) gate->RecordRefined(level, false);
    }

    for (data::PointId id : scenario.queries) {
      SCOPED_TRACE("query id=" + std::to_string(id));
      core::QueryOptions off_opts;
      core::QueryOptions gated = off_opts;
      gated.filter_mode = filter::FilterMode::kConservative;
      gated.filter_gate = true;

      auto off = scenario.miner.Query(id, off_opts);
      auto cons = scenario.miner.Query(id, gated);
      ASSERT_TRUE(off.ok()) << off.status().ToString();
      ASSERT_TRUE(cons.ok()) << cons.status().ToString();

      EXPECT_EQ(cons->outcome.minimal_outlying_subspaces,
                off->outcome.minimal_outlying_subspaces);
      EXPECT_EQ(cons->outcome.outlier_fraction,
                off->outcome.outlier_fraction);
      EXPECT_EQ(VerdictVector(*cons, d), VerdictVector(*off, d));
      EXPECT_EQ(cons->outcome.counters.risky_decisions, 0u);
      EXPECT_EQ(cons->outcome.counters.bound_gap, 0.0);
      // Closure holds with skips in the mix: a skipped mask just became an
      // exact evaluation instead of a bound decision.
      EXPECT_EQ(cons->outcome.counters.od_evaluations +
                    cons->outcome.counters.pruned_upward +
                    cons->outcome.counters.pruned_downward +
                    cons->outcome.counters.bound_decisions,
                lattice);
      total_gate_skips += cons->outcome.counters.gate_skips;
    }
  }
  EXPECT_GT(total_gate_skips, 0u)
      << "the trained gate never suppressed a refined pass";
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FilterDifferentialTest,
                         ::testing::Values(core::IndexKind::kLinearScan,
                                           core::IndexKind::kXTree),
                         [](const auto& info) {
                           return info.param == core::IndexKind::kXTree
                                      ? "XTree"
                                      : "LinearScan";
                         });

// The full space is the screening mask. There, a conservative Decide
// verdict must agree with the exact verdict derived from the linear
// scan's kNN answer (sum of the k nearest distances), for every live row,
// after tombstones land on rows the engine was built over.
TEST(FilterFullSpaceTest, ConservativeVerdictsAgreeWithExactFullSpaceOd) {
  testutil::AdversarialSpec spec;
  spec.seed = 99;
  spec.num_dims = 5;
  testutil::AdversarialDataset scenario = testutil::MakeAdversarial(spec);
  data::Dataset dataset = testutil::ToDataset(scenario);

  const knn::LinearScanKnn engine(dataset, knn::MetricKind::kL2);
  ASSERT_TRUE(dataset.DeleteRows(scenario.tombstones).ok());

  filter::DensityBoundFilter filter(
      dataset, knn::MetricKind::kL2,
      filter::DensitySummary::Build(dataset, /*bits_per_dim=*/8));
  const uint64_t full = Subspace::Full(spec.num_dims).mask();

  uint64_t decided = 0;
  for (data::PointId id = 0; id < static_cast<data::PointId>(dataset.size());
       ++id) {
    if (!dataset.IsLive(id)) continue;
    knn::KnnQuery query;
    query.point = dataset.Row(id);
    query.subspace = Subspace(full);
    query.k = scenario.k;
    query.exclude = id;
    const double exact_od = knn::OutlyingDegree(engine, query);
    const bool exact_outlier = exact_od >= scenario.threshold;

    const filter::FilterDecision decision = filter.Decide(
        dataset.Row(id), full, scenario.k, id, scenario.threshold,
        filter::FilterMode::kConservative, /*speculative_slack=*/0.0);
    if (!decision.decided()) continue;
    ++decided;
    EXPECT_EQ(decision.verdict == filter::FilterDecision::Verdict::kOutlier,
              exact_outlier)
        << "conservative verdict contradicts exact OD " << exact_od
        << " for id " << id;
    EXPECT_FALSE(decision.risky);
  }
  // Far-from-threshold rows exist by construction, so some must decide.
  EXPECT_GT(decided, 0u);
}

}  // namespace
}  // namespace hos
