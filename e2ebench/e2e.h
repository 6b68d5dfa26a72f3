// Shared types of the end-to-end benchmark: the workload table, the
// operation log the untraced run records, and the metric list both runs
// print.

#ifndef HOS_E2EBENCH_E2E_H_
#define HOS_E2EBENCH_E2E_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/subspace.h"
#include "src/core/hos_miner.h"
#include "src/data/generator.h"
#include "src/service/query_service.h"

namespace hos::e2e {

enum class Kind { kExplain, kBatchHot, kWindow, kHighD };

/// One workload: the data it generates, how the miner and service are
/// configured, and the shape of the closed loop one client drives.
struct Workload {
  std::string name;
  Kind kind = Kind::kExplain;
  /// Rows built at setup (for the window workload also the window size).
  size_t num_points = 0;
  int num_dims = 0;
  /// Query pool workers of the service.
  int service_threads = 1;
  filter::FilterMode filter_mode = filter::FilterMode::kOff;
  /// Outlier threshold T. Fixed at full size (near the median over seeds
  /// of the 95th-percentile estimate), so every seed's outlier fraction,
  /// and with it the tail, comes from the data and not from the 200-point
  /// sample the estimate draws; 0 estimates it (toy sizes).
  double threshold = 0.0;
  /// Percentile reported as query_tail_ms: the highest one the sample at
  /// the full run length supports with at least ten samples beyond it,
  /// unless that one spreads past the metric's bound from run to run.
  double tail_percentile = 0.99;
  /// Ids per QueryBatch call (batch workload).
  size_t batch_ids = 64;
  /// Rows per AppendBatch and queries per cycle (window workload).
  size_t append_rows = 64;
  size_t queries_per_cycle = 8;
  /// The traced run replays the filter tiers, and the store-less core
  /// probes, on every `probe_stride`-th read operation only: both cost as
  /// much as the searches themselves and are not part of the measured
  /// program.
  size_t probe_stride = 1;
  /// Rounds per untraced run, each with its own setup; every end-to-end
  /// metric but setup_s reports the median over rounds.
  int rounds = 4;
  /// Closed-loop operations per second of --seconds (a query, a batch
  /// call or a window cycle), calibrated so a round at full size takes
  /// about its share of --seconds on a 2.1 GHz Xeon core.
  double ops_per_second = 0.0;
};

core::HosMinerConfig MinerConfig(const Workload& w);
service::QueryServiceConfig ServiceConfig(const Workload& w);

/// The answer content of one query: what replay equivalence compares
/// bitwise.
struct Answer {
  std::vector<uint64_t> minimal;
  std::vector<double> fractions;
  bool operator==(const Answer&) const = default;
};

Answer AnswerOf(const search::SearchOutcome& outcome);

/// One front-door operation, in the order the client issued it.
struct Op {
  enum class Type { kQuery, kBatch, kAppend };
  Type type = Type::kQuery;
  /// Warm-up operations run before the clock starts.
  bool timed = true;
  /// kQuery: one id; kBatch: the batch.
  std::vector<data::PointId> ids;
  /// kAppend: raw rows.
  std::vector<std::vector<double>> rows;
  /// Wall time of the front-door call.
  double seconds = 0.0;
  /// One answer per id, from the service.
  std::vector<Answer> answers;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

using Metrics = std::vector<Metric>;

/// What the traced run needs from the untraced one.
struct UntracedRun {
  std::vector<Op> ops;
  /// Front-door read time and points over the timed operations.
  double read_seconds = 0.0;
  uint64_t read_points = 0;
  /// ServiceStats rebuild pause, 0 when the service never rebuilt.
  double last_rebuild_pause_seconds = 0.0;
  /// QueryService::Query minus HosMiner::Query on the same ids (median
  /// over sampled ids), measured on the service after the traced round.
  double service_overhead_seconds = 0.0;
  double threshold = 0.0;
};

/// Replays `run.ops` through each layer's public functions with timing
/// decorators on a replica miner built from `dataset`, and returns the
/// per-layer metrics. Every replayed answer is compared with the service's;
/// each mismatch or counter-identity failure is added to `*failed`, each
/// comparison to `*attempted`.
Metrics TracedReplay(const Workload& w, const data::Dataset& dataset,
                     const UntracedRun& run, uint64_t* attempted,
                     uint64_t* failed);

/// Lattice subspaces a result's counters leave out: 2^d - 1 minus fresh
/// evaluations, pruning both ways and bound decisions. The closure
/// identity says this is exactly the shared-store (OD cache) hits, which
/// the per-query counters do not report; negative means double counting.
int64_t Unaccounted(const search::SearchCounters& c, int num_dims);

}  // namespace hos::e2e

#endif  // HOS_E2EBENCH_E2E_H_
