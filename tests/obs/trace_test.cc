// QueryTracer / QueryTrace unit tests: span tree shape, the span cap,
// RAII behaviour with a null tracer, JSON shape, and concurrent span
// recording (the situation the frontier runner's pool workers put the
// tracer in).

#include "src/obs/trace.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace hos::obs {
namespace {

TEST(QueryTracerTest, BuildsAWellFormedTree) {
  QueryTracer tracer;
  const int root = tracer.BeginSpan("service");
  const int search = tracer.BeginSpan("search", root);
  const int level = tracer.BeginSpan("level", search, "m=2");
  const int knn = tracer.BeginSpan("knn", level, "mask=0x6");
  tracer.EndSpan(knn);
  tracer.EndSpan(level);
  tracer.EndSpan(search);
  tracer.EndSpan(root);

  const QueryTrace trace = tracer.Finish();
  ASSERT_EQ(trace.spans.size(), 4u);
  EXPECT_EQ(trace.dropped_spans, 0u);

  // Ids are vector positions; parents precede children.
  for (const TraceSpan& span : trace.spans) {
    EXPECT_EQ(span.id, &span - trace.spans.data());
    EXPECT_LT(span.parent, span.id);
  }
  const TraceSpan* root_span = trace.Find("service");
  ASSERT_NE(root_span, nullptr);
  EXPECT_EQ(root_span->parent, -1);
  const TraceSpan* knn_span = trace.Find("knn");
  ASSERT_NE(knn_span, nullptr);
  EXPECT_EQ(knn_span->detail, "mask=0x6");
  EXPECT_EQ(trace.spans[static_cast<size_t>(knn_span->parent)].name, "level");
  EXPECT_EQ(trace.CountByName("level"), 1u);
  EXPECT_EQ(trace.CountByName("absent"), 0u);
}

TEST(QueryTracerTest, DurationsAreStampedAndOrdered) {
  QueryTracer tracer;
  const int outer = tracer.BeginSpan("outer");
  const int inner = tracer.BeginSpan("inner", outer);
  tracer.EndSpan(inner);
  tracer.EndSpan(outer);
  const QueryTrace trace = tracer.Finish();
  const TraceSpan* outer_span = trace.Find("outer");
  const TraceSpan* inner_span = trace.Find("inner");
  ASSERT_NE(outer_span, nullptr);
  ASSERT_NE(inner_span, nullptr);
  EXPECT_GE(outer_span->duration_seconds, 0.0);
  EXPECT_GE(inner_span->start_seconds, outer_span->start_seconds);
  EXPECT_GE(outer_span->duration_seconds, inner_span->duration_seconds);
}

TEST(QueryTracerTest, CapDropsSpansButNeverMalformsTheTree) {
  QueryTracer tracer(/*max_spans=*/3);
  const int a = tracer.BeginSpan("a");
  const int b = tracer.BeginSpan("b", a);
  const int c = tracer.BeginSpan("c", b);
  const int d = tracer.BeginSpan("d", c);  // over the cap
  const int e = tracer.BeginSpan("e", c);  // over the cap
  EXPECT_GE(a, 0);
  EXPECT_GE(c, 0);
  EXPECT_EQ(d, -1);
  EXPECT_EQ(e, -1);
  tracer.EndSpan(d);  // no-ops, must not crash
  tracer.EndSpan(c);
  tracer.EndSpan(b);
  tracer.EndSpan(a);
  const QueryTrace trace = tracer.Finish();
  EXPECT_EQ(trace.spans.size(), 3u);
  EXPECT_EQ(trace.dropped_spans, 2u);
}

TEST(QueryTracerTest, FinishResetsTheTracer) {
  QueryTracer tracer;
  tracer.EndSpan(tracer.BeginSpan("first"));
  EXPECT_EQ(tracer.Finish().spans.size(), 1u);
  EXPECT_EQ(tracer.Finish().spans.size(), 0u);
}

TEST(ScopedSpanTest, NullTracerIsFullyDisabled) {
  ScopedSpan span(nullptr, "anything");
  EXPECT_EQ(span.id(), -1);
}

TEST(ScopedSpanTest, NestsViaExplicitParentIds) {
  QueryTracer tracer;
  {
    ScopedSpan outer(&tracer, "outer");
    ScopedSpan inner(&tracer, "inner", outer.id(), "detail");
    EXPECT_NE(inner.id(), outer.id());
  }
  const QueryTrace trace = tracer.Finish();
  ASSERT_EQ(trace.spans.size(), 2u);
  EXPECT_EQ(trace.Find("inner")->parent, trace.Find("outer")->id);
}

TEST(QueryTraceTest, ToJsonNamesEveryField) {
  QueryTracer tracer;
  const int root = tracer.BeginSpan("service", -1, "point=4");
  tracer.EndSpan(tracer.BeginSpan("knn", root));
  tracer.EndSpan(root);
  const std::string json = tracer.Finish().ToJson();
  for (const char* needle :
       {"\"dropped_spans\": 0", "\"spans\": [", "\"id\": 0", "\"parent\": -1",
        "\"name\": \"service\"", "\"detail\": \"point=4\"",
        "\"start_seconds\": ", "\"duration_seconds\": "}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }
}

// Frontier workers record spans concurrently into one tracer; every span
// must land (or be counted dropped) without corruption. Run under TSan via
// the obs ctest label.
TEST(QueryTracerTest, ConcurrentSpanRecordingIsSafe) {
  QueryTracer tracer;
  const int root = tracer.BeginSpan("root");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, root] {
      for (int i = 0; i < kPerThread; ++i) {
        ScopedSpan span(&tracer, "knn", root);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  tracer.EndSpan(root);
  const QueryTrace trace = tracer.Finish();
  EXPECT_EQ(trace.spans.size(), 1u + kThreads * kPerThread);
  EXPECT_EQ(trace.dropped_spans, 0u);
  EXPECT_EQ(trace.CountByName("knn"),
            static_cast<size_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace hos::obs
