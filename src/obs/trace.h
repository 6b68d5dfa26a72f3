// Per-query tracing: where did one query spend its time?
//
// A QueryTracer collects named, timed spans into a tree (explicit parent
// ids rather than thread-local span stacks, so spans nest correctly
// whichever thread records them). The serving path opens
// a "service" (or fused "batch") root, HosMiner a "search" child, the
// strategy span ("dynamic") a "wave" child per frontier round, and each
// wave a "knn" leaf per distinct subspace it evaluates — so a finished
// QueryTrace names every level from the front door down to the index
// probe.
//
// Cost model: every instrumentation site holds a `QueryTracer*` that is
// null unless the caller opted in (QueryOptions::collect_trace or the
// service's slow-query sampling). Disabled tracing is one pointer test per
// site. Enabled tracing takes a short mutex per span — fine for the
// hundreds-of-spans-per-query regime the cap enforces.

#ifndef HOS_OBS_TRACE_H_
#define HOS_OBS_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/timer.h"

namespace hos::obs {

struct TraceSpan {
  /// Position in QueryTrace::spans; parents always precede children.
  int id = -1;
  /// Index of the enclosing span, -1 for the root.
  int parent = -1;
  std::string name;
  /// Free-form annotation: "points=4" on a wave span, "mask=0x6 points=1"
  /// on a kNN span.
  std::string detail;
  /// Offset from the tracer's construction, in seconds.
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
};

/// The finished, immutable record handed back on QueryResult.
struct QueryTrace {
  std::vector<TraceSpan> spans;
  /// Spans discarded because the per-query cap was hit. Non-zero means the
  /// tree is truncated (leaves missing), never malformed.
  uint64_t dropped_spans = 0;

  /// First span with the given name, or nullptr.
  const TraceSpan* Find(std::string_view name) const;
  /// Number of spans with the given name.
  size_t CountByName(std::string_view name) const;
  /// {"dropped_spans": N, "spans": [{"id": ..., "parent": ..., ...}]}
  std::string ToJson() const;
};

/// Collects spans for one query. A search records from the one thread
/// that runs it, but the tracer stays thread-safe (a short mutex per span)
/// so a caller may share one external tracer (QueryOptions::tracer) across
/// threads. Span ids are only meaningful within the tracer that issued
/// them.
class QueryTracer {
 public:
  /// Default cap keeps a worst-case trace around tens of kilobytes; the
  /// slow-query log prints whole traces, so unbounded growth is a footgun.
  static constexpr size_t kDefaultMaxSpans = 4096;

  explicit QueryTracer(size_t max_spans = kDefaultMaxSpans)
      : max_spans_(max_spans) {}
  QueryTracer(const QueryTracer&) = delete;
  QueryTracer& operator=(const QueryTracer&) = delete;

  /// Opens a span; returns its id, or -1 when the cap is hit (the drop is
  /// counted). Passing a parent of -1 makes a root span.
  int BeginSpan(std::string_view name, int parent = -1,
                std::string detail = {});

  /// Closes the span, stamping its duration. EndSpan(-1) is a no-op so
  /// callers can thread through BeginSpan's result unconditionally.
  void EndSpan(int id);

  /// Moves the collected spans out. Spans still open keep duration 0.
  QueryTrace Finish();

 private:
  const size_t max_spans_;
  Timer timer_;
  std::mutex mu_;
  std::vector<TraceSpan> spans_;
  uint64_t dropped_ = 0;
};

/// RAII span: begins on construction, ends on destruction. Null tracer =
/// fully disabled (the ~zero-cost path).
class ScopedSpan {
 public:
  ScopedSpan(QueryTracer* tracer, std::string_view name, int parent = -1,
             std::string detail = {})
      : tracer_(tracer),
        id_(tracer ? tracer->BeginSpan(name, parent, std::move(detail)) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->EndSpan(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Id to pass as `parent` when opening children; -1 when disabled.
  int id() const { return id_; }

 private:
  QueryTracer* tracer_;
  int id_;
};

}  // namespace hos::obs

#endif  // HOS_OBS_TRACE_H_
