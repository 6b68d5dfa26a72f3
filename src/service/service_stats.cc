#include "src/service/service_stats.h"

namespace hos::service {

ServiceStats::ServiceStats(obs::MetricsRegistry* registry)
    : queries_served_(registry->GetCounter("service_queries_served")),
      batches_served_(registry->GetCounter("service_batches_served")),
      rows_ingested_(registry->GetCounter("service_rows_ingested")),
      append_batches_(registry->GetCounter("service_append_batches")),
      rebuilds_completed_(
          registry->GetCounter("service_rebuilds_completed")),
      slow_queries_(registry->GetCounter("service_slow_queries")),
      od_evaluations_(registry->GetCounter("service_od_evaluations")),
      filter_bound_decisions_(
          registry->GetCounter("service_filter_bound_decisions")),
      filter_risky_decisions_(
          registry->GetCounter("service_filter_risky_decisions")),
      last_bound_gap_(registry->GetGauge("service_last_bound_gap")),
      filter_gate_skips_(
          registry->GetCounter("service_filter_gate_skips")),
      rows_deleted_(registry->GetCounter("service_rows_deleted")),
      rows_evicted_(registry->GetCounter("service_rows_evicted")),
      evicted_query_rejects_(
          registry->GetCounter("service_evicted_query_rejects")),
      relearns_completed_(
          registry->GetCounter("service_relearns_completed")),
      last_rebuild_pause_seconds_(
          registry->GetGauge("service_last_rebuild_pause_seconds")),
      batched_queries_(registry->GetCounter("service_batched_queries")),
      batch_fused_evaluations_(
          registry->GetCounter("service_batch_fused_evaluations")),
      // Batch sizes are small integers (1 .. a few hundred), not latencies;
      // start the buckets at 1 so every realistic width gets its own bucket.
      batch_sizes_(registry->GetHistogram(
          "service_batch_size", {},
          obs::HistogramOptions{/*min_value=*/1.0, /*num_buckets=*/48})),
      latencies_(
          registry->GetHistogram("service_query_latency_seconds")) {}

void ServiceStats::RecordQuery(double latency_seconds,
                               const search::SearchCounters* counters) {
  queries_served_->Increment();
  latencies_->Record(latency_seconds);
  if (counters == nullptr) return;
  if (counters->od_evaluations > 0) {
    od_evaluations_->Increment(counters->od_evaluations);
  }
  if (counters->bound_decisions > 0) {
    filter_bound_decisions_->Increment(counters->bound_decisions);
  }
  if (counters->risky_decisions > 0) {
    filter_risky_decisions_->Increment(counters->risky_decisions);
    // Gauge semantics: the most recent risky query's widest interval. A
    // risk-free query leaves it untouched so a scrape between queries
    // still explains the last nonzero risk, and a fully conservative
    // service never writes it (stays 0).
    last_bound_gap_->Set(counters->bound_gap);
  }
  if (counters->gate_skips > 0) {
    filter_gate_skips_->Increment(counters->gate_skips);
  }
}

ServiceStatsSnapshot ServiceStats::Snapshot() const {
  ServiceStatsSnapshot snapshot;
  snapshot.queries_served = queries_served_->value();
  snapshot.batches_served = batches_served_->value();
  snapshot.rows_ingested = rows_ingested_->value();
  snapshot.append_batches = append_batches_->value();
  snapshot.rebuilds_completed = rebuilds_completed_->value();
  snapshot.slow_queries = slow_queries_->value();
  snapshot.od_evaluations = od_evaluations_->value();
  snapshot.filter_bound_decisions = filter_bound_decisions_->value();
  snapshot.filter_risky_decisions = filter_risky_decisions_->value();
  snapshot.last_bound_gap = last_bound_gap_->value();
  snapshot.filter_gate_skips = filter_gate_skips_->value();
  snapshot.rows_deleted = rows_deleted_->value();
  snapshot.rows_evicted = rows_evicted_->value();
  snapshot.evicted_query_rejects = evicted_query_rejects_->value();
  snapshot.relearns_completed = relearns_completed_->value();
  snapshot.last_rebuild_pause_seconds = last_rebuild_pause_seconds_->value();
  snapshot.batched_queries = batched_queries_->value();
  snapshot.batch_fused_evaluations = batch_fused_evaluations_->value();
  snapshot.p50_latency_seconds = latencies_->Percentile(0.50);
  snapshot.p90_latency_seconds = latencies_->Percentile(0.90);
  snapshot.p99_latency_seconds = latencies_->Percentile(0.99);
  snapshot.p999_latency_seconds = latencies_->Percentile(0.999);
  snapshot.max_latency_seconds = latencies_->max_recorded();
  return snapshot;
}

}  // namespace hos::service
