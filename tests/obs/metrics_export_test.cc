// MetricsRegistry: handle identity, label-keyed series, pull-model
// callbacks, type-collision handling, and the export surfaces. The JSON
// exporter's output is run through a small structural validator (objects /
// arrays / strings / numbers only — exactly the grammar the exporter may
// emit), so a malformed snapshot fails here rather than in whatever scrapes
// BENCH_*.json downstream.

#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <thread>
#include <vector>

namespace hos::obs {
namespace {

// --- a deliberately tiny JSON structural checker -------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-' || Peek() == '+') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    const std::string w(word);
    if (text_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// --- registry behaviour ---------------------------------------------------

TEST(MetricsRegistryTest, SameNameSameLabelsSameHandle) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("requests");
  Counter* b = registry.GetCounter("requests");
  EXPECT_EQ(a, b);
  a->Increment(3);
  EXPECT_EQ(b->value(), 3u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(MetricsRegistryTest, LabelsCreateDistinctSeries) {
  MetricsRegistry registry;
  Counter* xtree = registry.GetCounter("knn_scans", {{"backend", "xtree"}});
  Counter* linear =
      registry.GetCounter("knn_scans", {{"backend", "linear_scan"}});
  EXPECT_NE(xtree, linear);
  xtree->Increment(5);
  linear->Increment(7);
  EXPECT_EQ(registry.size(), 2u);

  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"backend\": \"xtree\""), std::string::npos);
  EXPECT_NE(json.find("\"backend\": \"linear_scan\""), std::string::npos);
}

TEST(MetricsRegistryTest, CallbacksEvaluateAtSnapshotTime) {
  MetricsRegistry registry;
  double level = 1.0;
  registry.RegisterCallback("water_level", {}, MetricType::kGauge,
                            [&level] { return level; });
  auto value_of = [&](const std::string& name) {
    for (const MetricValue& m : registry.Snapshot()) {
      if (m.name == name) return m.value;
    }
    return -1.0;
  };
  EXPECT_EQ(value_of("water_level"), 1.0);
  level = 42.0;
  EXPECT_EQ(value_of("water_level"), 42.0);
}

TEST(MetricsRegistryTest, ReRegisteringCallbackReplacesIt) {
  MetricsRegistry registry;
  registry.RegisterCallback("v", {}, MetricType::kCounter,
                            [] { return 1.0; });
  registry.RegisterCallback("v", {}, MetricType::kCounter,
                            [] { return 2.0; });
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Snapshot()[0].value, 2.0);
}

TEST(MetricsRegistryTest, TypeCollisionHandsBackDummyNotCrash) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("mixed");
  counter->Increment();
  Gauge* gauge = registry.GetGauge("mixed");  // collision
  ASSERT_NE(gauge, nullptr);
  gauge->Set(99.0);  // safe to record into
  // The registry still holds exactly one "mixed" series, the counter.
  EXPECT_EQ(registry.size(), 1u);
  const std::vector<MetricValue> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].type, MetricType::kCounter);
  EXPECT_EQ(snapshot[0].value, 1.0);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndDeterministic) {
  MetricsRegistry registry;
  registry.GetCounter("zebra");
  registry.GetCounter("alpha");
  registry.GetGauge("mid");
  const std::vector<MetricValue> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].name, "alpha");
  EXPECT_EQ(snapshot[1].name, "mid");
  EXPECT_EQ(snapshot[2].name, "zebra");
  EXPECT_EQ(registry.ToJson(), registry.ToJson());
}

// --- export schema --------------------------------------------------------

TEST(MetricsExportTest, JsonIsStructurallyValidAndCarriesEveryField) {
  MetricsRegistry registry;
  registry.GetCounter("served", {{"shard", "0"}})->Increment(12);
  registry.GetGauge("depth")->Set(3.5);
  Histogram* hist = registry.GetHistogram("latency_seconds");
  hist->Record(0.001);
  hist->Record(0.020);
  registry.RegisterCallback("cache_hits", {}, MetricType::kCounter,
                            [] { return 77.0; });

  const std::string json = registry.ToJson();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;

  EXPECT_NE(json.find("\"metrics\": ["), std::string::npos);
  // Scalar metrics carry "value"; histograms carry the summary fields.
  EXPECT_NE(json.find("\"name\": \"served\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"histogram\""), std::string::npos);
  for (const char* field :
       {"\"count\": 2", "\"sum\": ", "\"p50\": ", "\"p90\": ", "\"p99\": ",
        "\"p999\": ", "\"max\": ", "\"overflow\": 0"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  EXPECT_NE(json.find("\"cache_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 77"), std::string::npos);
}

TEST(MetricsExportTest, JsonEscapesAwkwardLabelValues) {
  MetricsRegistry registry;
  registry.GetCounter("odd", {{"path", "a\"b\\c\nd"}})->Increment();
  const std::string json = registry.ToJson();
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos);
}

TEST(MetricsExportTest, PrometheusTextHasTypesQuantilesAndCounts) {
  MetricsRegistry registry;
  registry.GetCounter("served")->Increment(3);
  Histogram* hist = registry.GetHistogram("latency_seconds",
                                          {{"pool", "query"}});
  hist->Record(0.004);

  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE served counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE latency_seconds summary"), std::string::npos);
  EXPECT_NE(text.find("served 3"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.999\""), std::string::npos);
  EXPECT_NE(text.find("latency_seconds_count{pool=\"query\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("latency_seconds_sum{pool=\"query\"}"),
            std::string::npos);
  EXPECT_NE(text.find("pool=\"query\",quantile=\"0.5\""), std::string::npos);
}

// Regression: the Prometheus exporter used to splice label values into the
// exposition text verbatim, so a value containing a backslash, a double
// quote, or a newline produced an unparseable (or worse, silently
// truncated/injected) scrape. The format requires exactly `\\`, `\"` and
// `\n` inside quoted label values.
TEST(MetricsExportTest, PrometheusEscapesHostileLabelValues) {
  MetricsRegistry registry;
  registry.GetCounter("odd", {{"path", "C:\\tmp\"evil\nseries 9"}})
      ->Increment(4);

  const std::string text = registry.ToPrometheusText();
  EXPECT_NE(
      text.find("odd{path=\"C:\\\\tmp\\\"evil\\nseries 9\"} 4"),
      std::string::npos)
      << text;
  // No raw newline may survive inside a label value: every line of the
  // exposition is either a comment or starts with the metric name.
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    if (!line.empty() && line[0] != '#') {
      EXPECT_EQ(line.rfind("odd{", 0), 0u) << "injected line: " << line;
    }
    start = end + 1;
  }
}

// Concurrent handle acquisition and recording (the TSan case): threads race
// Get* for overlapping names while others record through already-held
// handles; totals must come out exact.
TEST(MetricsRegistryTest, ConcurrentGetAndRecordIsSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      Counter* mine = registry.GetCounter("shared_total");
      Histogram* hist = registry.GetHistogram("shared_latency");
      for (int i = 0; i < kIterations; ++i) {
        mine->Increment();
        hist->Record(1e-3);
        if (i % 256 == 0) (void)registry.Snapshot();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("shared_total")->value(),
            static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(registry.GetHistogram("shared_latency")->count(),
            static_cast<uint64_t>(kThreads) * kIterations);
}

}  // namespace
}  // namespace hos::obs
