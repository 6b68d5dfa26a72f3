#include "src/core/result_json.h"

#include <sstream>

namespace hos::core {
namespace {

void AppendSubspaceArray(std::ostringstream* out,
                         const std::vector<Subspace>& subspaces) {
  *out << "[";
  for (size_t i = 0; i < subspaces.size(); ++i) {
    if (i > 0) *out << ",";
    *out << SubspaceToJson(subspaces[i]);
  }
  *out << "]";
}

}  // namespace

std::string SubspaceToJson(const Subspace& subspace) {
  std::ostringstream out;
  out << "[";
  bool first = true;
  for (int dim : subspace.Dims()) {
    if (!first) out << ",";
    out << (dim + 1);
    first = false;
  }
  out << "]";
  return out.str();
}

std::string QueryResultToJson(const QueryResult& result) {
  const auto& outcome = result.outcome;
  std::ostringstream out;
  out.precision(17);
  out << "{";
  out << "\"threshold\":" << outcome.threshold << ",";
  out << "\"num_dims\":" << outcome.num_dims << ",";
  out << "\"is_outlier\":" << (result.is_outlier_anywhere() ? "true" : "false")
      << ",";
  out << "\"minimal_outlying_subspaces\":";
  AppendSubspaceArray(&out, outcome.minimal_outlying_subspaces);
  out << ",";
  out << "\"total_outlying_subspaces\":" << outcome.TotalOutlyingCount()
      << ",";
  out << "\"counters\":{";
  out << "\"od_evaluations\":" << outcome.counters.od_evaluations << ",";
  out << "\"pruned_upward\":" << outcome.counters.pruned_upward << ",";
  out << "\"pruned_downward\":" << outcome.counters.pruned_downward << ",";
  out << "\"distance_computations\":"
      << outcome.counters.distance_computations << ",";
  out << "\"steps\":" << outcome.counters.steps << ",";
  out << "\"bound_decisions\":" << outcome.counters.bound_decisions << ",";
  out << "\"risky_decisions\":" << outcome.counters.risky_decisions << ",";
  out << "\"bound_gap\":" << outcome.counters.bound_gap << ",";
  out << "\"gate_skips\":" << outcome.counters.gate_skips << ",";
  out << "\"elapsed_seconds\":" << outcome.counters.elapsed_seconds;
  out << "}";
  // Only traced results carry the key, so untraced output (including the
  // pinned golden fixture) is byte-identical to what it always was.
  if (result.trace != nullptr) {
    out << ",\"trace\":" << result.trace->ToJson();
  }
  out << "}";
  return out.str();
}

std::string LearningReportToJson(const learning::LearningReport& report) {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  out << "\"sample_ids\":[";
  for (size_t i = 0; i < report.sample_ids.size(); ++i) {
    if (i > 0) out << ",";
    out << report.sample_ids[i];
  }
  out << "],";
  auto emit_levels = [&](const char* name, const std::vector<double>& v) {
    out << "\"" << name << "\":[";
    // Index 0 is unused; emit levels 1..d.
    for (size_t m = 1; m < v.size(); ++m) {
      if (m > 1) out << ",";
      out << v[m];
    }
    out << "]";
  };
  emit_levels("p_up", report.priors.up);
  out << ",";
  emit_levels("p_down", report.priors.down);
  out << ",";
  emit_levels("mean_outlier_fraction", report.mean_outlier_fraction);
  out << "}";
  return out.str();
}

}  // namespace hos::core
