// The unified metrics layer: named, label-able counters, gauges and
// log-bucketed histograms behind one MetricsRegistry, so a single snapshot
// describes the whole engine — service counters, OD-cache hit rates,
// ingest/rebuild progress, search work tallies and the per-backend kNN
// internals all export through the same surface (JSON for BENCH_*.json /
// tests, Prometheus text for scrapers).
//
// Recording is lock-free: Get* hands back a stable pointer whose Increment
// / Set / Record are relaxed atomic operations, so hot paths pay one
// fetch_add per event (the same price the old hand-rolled RelaxedCounter
// fields charged). The registry mutex guards only registration and
// snapshotting, which are rare.
//
// Two acquisition models coexist:
//  * push — callers hold a Counter*/Gauge*/Histogram* and record events as
//    they happen (the serving path);
//  * pull — RegisterCallback attaches a closure evaluated at snapshot time,
//    for tallies that already live inside another component (the kNN
//    engines' RelaxedCounters, the OdCache, dataset gauges) and would cost
//    an extra hot-path write to mirror eagerly.
//
// Snapshot order is deterministic (sorted by name, then labels), so the
// exported JSON is stable across runs and the schema check in tests/obs/
// can hold it still.

#ifndef HOS_OBS_METRICS_H_
#define HOS_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/atomic_counter.h"

namespace hos::obs {

/// Metric labels: ordered (key, value) pairs. Two metrics with the same
/// name but different labels are distinct time series (e.g. per-backend
/// kNN counters labelled {"backend", "xtree"}).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  RelaxedCounter value_;
};

/// Last-written value (levels: queue depths, fractions, versions).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

struct HistogramOptions {
  /// Lower edge of the first bucket. Values at or below it land in
  /// bucket 0.
  double min_value = 1e-6;
  /// Geometric buckets with ratio 2^(1/4) per step: bucket i covers
  /// (min_value * r^(i-1), min_value * r^i], bounding percentile error by
  /// ~19% of the value. 128 buckets span 1 µs .. ~1 hour of latency.
  int num_buckets = 128;
};

/// Thread-safe log-bucketed histogram. Values above the top bucket are
/// counted in a dedicated overflow bucket — not silently clamped into the
/// top one — and the exact maximum ever recorded is kept, so Percentile can
/// answer honestly for ranks that land in the overflow.
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});

  void Record(double value);

  /// The q-quantile (q clamped to [0, 1]) as the upper bound of the bucket
  /// holding that rank; the exact maximum recorded when the rank lands in
  /// the overflow bucket; 0 when nothing was recorded. q = 0 reports the
  /// bucket of the smallest recorded value (rank 1), not bucket 0.
  double Percentile(double q) const;

  uint64_t count() const { return count_; }
  /// Values recorded above the top bucket's upper bound.
  uint64_t overflow_count() const { return overflow_; }
  /// Exact largest value recorded; 0 when empty.
  double max_recorded() const {
    return max_bits_ == 0 ? 0.0 : BitsToDouble(max_bits_.load());
  }
  /// Sum of all recorded values (for rate/mean derivation by scrapers).
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  double bucket_upper_bound(int bucket) const;

 private:
  int BucketFor(double value) const;

  // max is kept as the bit pattern of a non-negative double inside a
  // uint64 fetch_max: IEEE-754 ordering matches integer ordering for
  // non-negative values, and negative recordings clamp to bucket 0 anyway.
  static uint64_t DoubleToBits(double v);
  static double BitsToDouble(uint64_t b);

  HistogramOptions options_;
  std::vector<std::atomic<uint64_t>> buckets_;
  RelaxedCounter count_;
  RelaxedCounter overflow_;
  std::atomic<uint64_t> max_bits_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// Point-in-time value of one metric, as Snapshot() reports it.
struct MetricValue {
  std::string name;
  Labels labels;
  MetricType type = MetricType::kCounter;
  /// Counter / gauge / callback value.
  double value = 0.0;
  // Histogram summary (zero for scalar metrics).
  uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
  uint64_t overflow = 0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the counter registered under (name, labels), creating it on
  /// first use. The pointer is stable for the registry's lifetime. Name
  /// collisions across types are a caller bug: the call logs an error and
  /// returns a dummy metric not included in snapshots, so the caller can
  /// still record into something safely.
  Counter* GetCounter(std::string_view name, Labels labels = {});
  Gauge* GetGauge(std::string_view name, Labels labels = {});
  Histogram* GetHistogram(std::string_view name, Labels labels = {},
                          HistogramOptions options = {});

  /// Pull-model metric: `fn` is evaluated under the registry lock at every
  /// Snapshot/ToJson. `type` must be kCounter (monotone source) or kGauge.
  /// Re-registering the same (name, labels) replaces the callback — the
  /// serving layer does this when a rebuild swaps the engine the closure
  /// reads through.
  void RegisterCallback(std::string_view name, Labels labels, MetricType type,
                        std::function<double()> fn);

  /// Every metric's current value, sorted by (name, labels) so export
  /// output is deterministic.
  std::vector<MetricValue> Snapshot() const;

  /// {"metrics": [{"name": ..., "labels": {...}, "type": ..., ...}, ...]}
  /// — one object per metric; scalar metrics carry "value", histograms
  /// carry count/sum/percentiles/max/overflow. The schema is pinned by
  /// tests/obs/metrics_export_test.cc.
  std::string ToJson() const;

  /// Prometheus text exposition format (0.0.4): counters and gauges as-is,
  /// histograms as summaries with quantile labels plus _count and _sum.
  std::string ToPrometheusText() const;

  /// Number of registered metrics (callbacks included).
  size_t size() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricType type = MetricType::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> callback;  // pull-model when set
  };

  static std::string KeyFor(std::string_view name, const Labels& labels);
  Entry* FindOrCreate(std::string_view name, const Labels& labels,
                      MetricType type, bool* type_mismatch);

  mutable std::mutex mu_;
  /// Keyed by name + serialized labels; std::map so iteration (and thus
  /// every export) is sorted and deterministic.
  std::map<std::string, Entry> entries_;
};

}  // namespace hos::obs

#endif  // HOS_OBS_METRICS_H_
