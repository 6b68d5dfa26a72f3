// hos_cli: the interactive face of the demo system — load any numeric CSV,
// pick a row (or pass an explicit point), get its outlying subspaces.
//
// Usage:
//   hos_cli <data.csv> --query <row-id> [options]
//   hos_cli <data.csv> --point v1,v2,...,vd [options]
//
// Every number must be a whole, finite token (row ids >= 0); a malformed
// value names its flag and exits 2 with the usage text.
//
// Options:
//   --k <int>            neighbours of the OD measure        (default 5)
//   --threshold <float>  outlier threshold T; <= 0 means auto (default auto)
//   --percentile <float> percentile for auto T               (default 0.95)
//   --metric <L1|L2|LInf>                                    (default L2)
//   --samples <int>      learning sample size S              (default 20)
//   --no-header          CSV has no header row
//   --linear-scan        use brute-force kNN instead of the X-tree

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "src/core/hos_miner.h"
#include "src/data/csv.h"

namespace {

using namespace hos;  // NOLINT

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <data.csv> (--query <row-id> | --point v1,...,vd)\n"
               "  [--k N] [--threshold T] [--percentile P]\n"
               "  [--metric L1|L2|LInf] [--samples S] [--no-header]\n"
               "  [--linear-scan]\n",
               argv0);
  return 2;
}

/// The whole of `text` as an integer in [lo, hi], or nullopt.
std::optional<long> ParseInt(const char* text, long lo, long hi) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    return std::nullopt;
  }
  return value;
}

/// The whole of `text` as a finite double, or nullopt.
std::optional<double> ParseDouble(const char* text) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

/// Comma-separated finite coordinates, or nullopt if any field is not one.
std::optional<std::vector<double>> ParsePoint(const std::string& text) {
  std::vector<double> out;
  std::stringstream stream(text);
  std::string field;
  while (std::getline(stream, field, ',')) {
    const std::optional<double> value = ParseDouble(field.c_str());
    if (!value) return std::nullopt;
    out.push_back(*value);
  }
  if (out.empty()) return std::nullopt;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string csv_path = argv[1];

  core::HosMinerConfig config;
  data::CsvOptions csv_options;
  long query_id = -1;
  std::vector<double> query_point;

  constexpr long kIntMin = std::numeric_limits<int>::min();
  constexpr long kIntMax = std::numeric_limits<int>::max();
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // A malformed value names its flag and exits 2 with the usage text.
    auto bad_value = [&](const char* value) {
      std::fprintf(stderr, "invalid value '%s' for %s\n", value, arg.c_str());
      std::exit(Usage(argv[0]));
    };
    auto next_int = [&](long lo, long hi) {
      const char* value = next();
      const std::optional<long> parsed = ParseInt(value, lo, hi);
      if (!parsed) bad_value(value);
      return *parsed;
    };
    auto next_double = [&]() {
      const char* value = next();
      const std::optional<double> parsed = ParseDouble(value);
      if (!parsed) bad_value(value);
      return *parsed;
    };
    if (arg == "--query") {
      query_id = next_int(0, std::numeric_limits<data::PointId>::max());
    } else if (arg == "--point") {
      const char* value = next();
      std::optional<std::vector<double>> point = ParsePoint(value);
      if (!point) bad_value(value);
      query_point = std::move(*point);
    } else if (arg == "--k") {
      config.k = static_cast<int>(next_int(kIntMin, kIntMax));
    } else if (arg == "--threshold") {
      config.threshold = next_double();
    } else if (arg == "--percentile") {
      config.threshold_percentile = next_double();
    } else if (arg == "--samples") {
      config.sample_size = static_cast<int>(next_int(kIntMin, kIntMax));
    } else if (arg == "--metric") {
      const std::string metric = next();
      if (metric == "L1") {
        config.metric = knn::MetricKind::kL1;
      } else if (metric == "L2") {
        config.metric = knn::MetricKind::kL2;
      } else if (metric == "LInf") {
        config.metric = knn::MetricKind::kLInf;
      } else {
        std::fprintf(stderr, "unknown metric '%s'\n", metric.c_str());
        return 2;
      }
    } else if (arg == "--no-header") {
      csv_options.has_header = false;
    } else if (arg == "--linear-scan") {
      config.index = core::IndexKind::kLinearScan;
    } else {
      return Usage(argv[0]);
    }
  }
  if (query_id < 0 && query_point.empty()) return Usage(argv[0]);

  auto dataset = data::ReadCsvFile(csv_path, csv_options);
  if (!dataset.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", csv_path.c_str(),
                 dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("Loaded %zu rows x %d columns from %s\n", dataset->size(),
              dataset->num_dims(), csv_path.c_str());

  auto miner = core::HosMiner::Build(std::move(dataset).value(), config);
  if (!miner.ok()) {
    std::fprintf(stderr, "build failed: %s\n",
                 miner.status().ToString().c_str());
    return 1;
  }
  std::printf("k = %d, metric = %s, T = %.4f, learned from S = %zu samples\n",
              miner->config().k,
              std::string(knn::MetricKindToString(miner->config().metric))
                  .c_str(),
              miner->threshold(),
              miner->learning_report().sample_ids.size());

  auto result = query_id >= 0
                    ? miner->Query(static_cast<data::PointId>(query_id))
                    : miner->QueryPoint(query_point);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  if (!result->is_outlier_anywhere()) {
    std::printf("-> not an outlier in any subspace.\n");
    return 0;
  }
  std::printf("-> outlier in %llu subspaces; minimal outlying subspaces:\n",
              static_cast<unsigned long long>(
                  result->outcome.TotalOutlyingCount()));
  const auto& names = miner->dataset().column_names();
  for (const Subspace& s : result->outlying_subspaces()) {
    std::printf("   %s  {", s.ToString().c_str());
    bool first = true;
    for (int dim : s.Dims()) {
      std::printf("%s%s", first ? "" : ", ", names[dim].c_str());
      first = false;
    }
    std::printf("}\n");
  }
  std::printf("(evaluated %llu subspaces, pruned %llu up / %llu down)\n",
              static_cast<unsigned long long>(
                  result->outcome.counters.od_evaluations),
              static_cast<unsigned long long>(
                  result->outcome.counters.pruned_upward),
              static_cast<unsigned long long>(
                  result->outcome.counters.pruned_downward));
  return 0;
}
