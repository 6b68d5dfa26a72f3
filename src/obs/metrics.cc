#include "src/obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "src/common/logging.h"

namespace hos::obs {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(HistogramOptions options)
    : options_(options),
      buckets_(static_cast<size_t>(std::max(options.num_buckets, 1))) {
  options_.num_buckets = static_cast<int>(buckets_.size());
  if (!(options_.min_value > 0.0)) options_.min_value = 1e-6;
}

double Histogram::bucket_upper_bound(int bucket) const {
  return options_.min_value * std::pow(2.0, 0.25 * bucket);
}

int Histogram::BucketFor(double value) const {
  if (!(value > options_.min_value)) return 0;
  const int bucket = static_cast<int>(
      std::ceil(4.0 * std::log2(value / options_.min_value)));
  if (bucket < 0) return 0;
  // num_buckets is the overflow sentinel: values past the top bucket are
  // counted apart instead of silently clamped into it.
  return std::min(bucket, options_.num_buckets);
}

uint64_t Histogram::DoubleToBits(double v) {
  if (!(v > 0.0)) return 0;  // negatives and NaN rank below everything
  return std::bit_cast<uint64_t>(v);
}

double Histogram::BitsToDouble(uint64_t b) { return std::bit_cast<double>(b); }

void Histogram::Record(double value) {
  const int bucket = BucketFor(value);
  if (bucket == options_.num_buckets) {
    ++overflow_;
  } else {
    buckets_[static_cast<size_t>(bucket)].fetch_add(
        1, std::memory_order_relaxed);
  }
  ++count_;
  sum_.fetch_add(value, std::memory_order_relaxed);
  // fetch_max over the bit pattern (IEEE order == integer order for
  // non-negative doubles).
  uint64_t bits = DoubleToBits(value);
  uint64_t seen = max_bits_.load(std::memory_order_relaxed);
  while (bits > seen && !max_bits_.compare_exchange_weak(
                            seen, bits, std::memory_order_relaxed)) {
  }
}

double Histogram::Percentile(double q) const {
  const int n = options_.num_buckets;
  std::vector<uint64_t> counts(static_cast<size_t>(n));
  uint64_t total = 0;
  for (int i = 0; i < n; ++i) {
    counts[static_cast<size_t>(i)] =
        buckets_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
    total += counts[static_cast<size_t>(i)];
  }
  const uint64_t over = overflow_;
  total += over;
  if (total == 0) return 0.0;
  // Rank at least 1: q = 0 asks for the smallest recorded value's bucket,
  // not unconditionally bucket 0.
  const double want = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(want)));
  uint64_t cumulative = 0;
  for (int i = 0; i < n; ++i) {
    cumulative += counts[static_cast<size_t>(i)];
    if (cumulative >= rank) return bucket_upper_bound(i);
  }
  // The rank lands in the overflow bucket: report the exact maximum ever
  // recorded instead of pretending the top bucket's bound covers it.
  return max_recorded();
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

namespace {

/// Targets for Get* calls that collide with an existing metric of another
/// type: recording into them is safe and visible nowhere.
Counter* DummyCounter() {
  static Counter counter;
  return &counter;
}
Gauge* DummyGauge() {
  static Gauge gauge;
  return &gauge;
}
Histogram* DummyHistogram() {
  static Histogram histogram;
  return &histogram;
}

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendDouble(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // JSON has no inf/nan literals; clamp to null-ish zero rather than emit
  // an unparsable token.
  if (std::isfinite(v)) {
    *out += buf;
  } else {
    *out += "0";
  }
}

const char* TypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "unknown";
}

}  // namespace

std::string MetricsRegistry::KeyFor(std::string_view name,
                                    const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += '\x1f';
    key += k;
    key += '\x1e';
    key += v;
  }
  return key;
}

MetricsRegistry::Entry* MetricsRegistry::FindOrCreate(std::string_view name,
                                                      const Labels& labels,
                                                      MetricType type,
                                                      bool* type_mismatch) {
  // Caller holds mu_.
  *type_mismatch = false;
  const std::string key = KeyFor(name, labels);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.type != type) {
      *type_mismatch = true;
      HOS_LOG(Error) << "metric '" << std::string(name)
                     << "' re-registered as " << TypeName(type)
                     << " but exists as " << TypeName(it->second.type);
    }
    return &it->second;
  }
  Entry& entry = entries_[key];
  entry.name = std::string(name);
  entry.labels = labels;
  entry.type = type;
  return &entry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  bool mismatch = false;
  Entry* entry = FindOrCreate(name, labels, MetricType::kCounter, &mismatch);
  if (mismatch) return DummyCounter();
  if (entry->counter == nullptr) entry->counter = std::make_unique<Counter>();
  return entry->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  bool mismatch = false;
  Entry* entry = FindOrCreate(name, labels, MetricType::kGauge, &mismatch);
  if (mismatch) return DummyGauge();
  if (entry->gauge == nullptr) entry->gauge = std::make_unique<Gauge>();
  return entry->gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name, Labels labels,
                                         HistogramOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  bool mismatch = false;
  Entry* entry = FindOrCreate(name, labels, MetricType::kHistogram, &mismatch);
  if (mismatch) return DummyHistogram();
  if (entry->histogram == nullptr) {
    entry->histogram = std::make_unique<Histogram>(options);
  }
  return entry->histogram.get();
}

void MetricsRegistry::RegisterCallback(std::string_view name, Labels labels,
                                       MetricType type,
                                       std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  if (type == MetricType::kHistogram) type = MetricType::kGauge;
  bool mismatch = false;
  Entry* entry = FindOrCreate(name, labels, type, &mismatch);
  if (mismatch) return;
  // Replacing an existing callback is sanctioned (engine swap on rebuild);
  // shadowing a push-model metric is not.
  if (entry->counter != nullptr || entry->gauge != nullptr ||
      entry->histogram != nullptr) {
    HOS_LOG(Error) << "metric '" << std::string(name)
                   << "' already registered as a push-model metric; "
                      "callback ignored";
    return;
  }
  entry->callback = std::move(fn);
}

size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<MetricValue> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricValue> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricValue value;
    value.name = entry.name;
    value.labels = entry.labels;
    value.type = entry.type;
    if (entry.callback) {
      value.value = entry.callback();
    } else if (entry.counter != nullptr) {
      value.value = static_cast<double>(entry.counter->value());
    } else if (entry.gauge != nullptr) {
      value.value = entry.gauge->value();
    } else if (entry.histogram != nullptr) {
      const Histogram& h = *entry.histogram;
      value.count = h.count();
      value.sum = h.sum();
      value.p50 = h.Percentile(0.50);
      value.p90 = h.Percentile(0.90);
      value.p99 = h.Percentile(0.99);
      value.p999 = h.Percentile(0.999);
      value.max = h.max_recorded();
      value.overflow = h.overflow_count();
    }
    out.push_back(std::move(value));
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  const std::vector<MetricValue> snapshot = Snapshot();
  std::string out = "{\"metrics\": [";
  bool first = true;
  for (const MetricValue& m : snapshot) {
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"";
    AppendJsonEscaped(&out, m.name);
    out += "\"";
    if (!m.labels.empty()) {
      out += ", \"labels\": {";
      for (size_t i = 0; i < m.labels.size(); ++i) {
        if (i > 0) out += ", ";
        out += "\"";
        AppendJsonEscaped(&out, m.labels[i].first);
        out += "\": \"";
        AppendJsonEscaped(&out, m.labels[i].second);
        out += "\"";
      }
      out += "}";
    }
    out += ", \"type\": \"";
    out += TypeName(m.type);
    out += "\"";
    if (m.type == MetricType::kHistogram) {
      out += ", \"count\": " + std::to_string(m.count);
      out += ", \"sum\": ";
      AppendDouble(&out, m.sum);
      out += ", \"p50\": ";
      AppendDouble(&out, m.p50);
      out += ", \"p90\": ";
      AppendDouble(&out, m.p90);
      out += ", \"p99\": ";
      AppendDouble(&out, m.p99);
      out += ", \"p999\": ";
      AppendDouble(&out, m.p999);
      out += ", \"max\": ";
      AppendDouble(&out, m.max);
      out += ", \"overflow\": " + std::to_string(m.overflow);
    } else {
      out += ", \"value\": ";
      AppendDouble(&out, m.value);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

namespace {

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote and line feed become \\, \" and \n (the same
/// three escapes the JSON path applies via AppendJsonEscaped; without them
/// a hostile label value would break the series line or inject one).
void AppendPromEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '\\': *out += "\\\\"; break;
      case '"': *out += "\\\""; break;
      case '\n': *out += "\\n"; break;
      default: *out += c;
    }
  }
}

/// name{label_k="label_v",...} — the Prometheus series identifier; extra
/// labels (e.g. quantile) are appended by the caller before closing.
std::string PromSeries(const MetricValue& m, const std::string& suffix,
                       const std::string& extra_label) {
  std::string out = m.name + suffix;
  if (m.labels.empty() && extra_label.empty()) return out;
  out += "{";
  bool first = true;
  for (const auto& [k, v] : m.labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"";
    AppendPromEscaped(&out, v);
    out += "\"";
  }
  if (!extra_label.empty()) {
    if (!first) out += ",";
    out += extra_label;
  }
  out += "}";
  return out;
}

std::string PromValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricsRegistry::ToPrometheusText() const {
  const std::vector<MetricValue> snapshot = Snapshot();
  std::string out;
  std::string last_typed;
  for (const MetricValue& m : snapshot) {
    if (m.name != last_typed) {
      out += "# TYPE " + m.name + " ";
      out += m.type == MetricType::kCounter
                 ? "counter"
                 : (m.type == MetricType::kGauge ? "gauge" : "summary");
      out += "\n";
      last_typed = m.name;
    }
    if (m.type == MetricType::kHistogram) {
      const std::pair<const char*, double> quantiles[] = {
          {"0.5", m.p50}, {"0.9", m.p90}, {"0.99", m.p99}, {"0.999", m.p999}};
      for (const auto& [q, v] : quantiles) {
        out += PromSeries(m, "", std::string("quantile=\"") + q + "\"") +
               " " + PromValue(v) + "\n";
      }
      out += PromSeries(m, "_count", "") + " " + std::to_string(m.count) +
             "\n";
      out += PromSeries(m, "_sum", "") + " " + PromValue(m.sum) + "\n";
    } else {
      out += PromSeries(m, "", "") + " " + PromValue(m.value) + "\n";
    }
  }
  return out;
}

}  // namespace hos::obs
