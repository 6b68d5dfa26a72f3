// Shared helpers for the experiment harness binaries.

#ifndef HOS_BENCH_BENCH_UTIL_H_
#define HOS_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/common/subspace.h"
#include "src/data/generator.h"

namespace hos::bench {

/// Set by ConsumeSmokeFlag. In smoke mode every harness shrinks its workload
/// to a few-second run so CI can execute all binaries at PR time; the numbers
/// are meaningless, only "it still runs and writes well-formed output" is.
inline bool g_smoke = false;

inline bool SmokeMode() { return g_smoke; }

/// Strips every `--smoke` occurrence from argv (keeping positional arguments
/// like the JSON output path in their slots) and records it. Call it first
/// thing in main(), before reading argv.
inline bool ConsumeSmokeFlag(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return g_smoke;
}

/// Workload size under the current mode: the full size normally, the (much
/// smaller) smoke size when --smoke was passed.
inline size_t SmokeSize(size_t full, size_t smoke) {
  return g_smoke ? smoke : full;
}

/// Parameter sweep under the current mode: smoke keeps only the first entry,
/// enough to cover the code path without the big-d blowup.
template <typename T>
inline std::vector<T> SmokeSweep(std::vector<T> full) {
  if (g_smoke && full.size() > 1) full.erase(full.begin() + 1, full.end());
  return full;
}

/// Provenance fields every JSON artifact carries: the core count the harness
/// saw, and a caveat flag that is true when the run cannot have exploited
/// parallelism (<= 1 visible core, or the count is unreported) — wall-time
/// comparisons against multi-core runs are then apples-to-oranges. Returned
/// without braces so callers splice it into their own object.
inline std::string ProvenanceJsonFields() {
  const unsigned hc = std::thread::hardware_concurrency();
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "\"hardware_concurrency\": %u, \"single_core_caveat\": %s", hc,
                hc <= 1 ? "true" : "false");
  return buf;
}

/// Standard planted workload used across the efficiency experiments: dense
/// background with hyperplane structure in the planted subspaces, one
/// displaced outlier per subspace.
inline data::GeneratedData MakeWorkload(size_t num_points, int num_dims,
                                        uint64_t seed,
                                        double displacement = 0.6) {
  Rng rng(seed);
  data::SubspaceOutlierSpec spec;
  spec.num_points = num_points;
  spec.num_dims = num_dims;
  spec.planted_subspaces = {Subspace::FromOneBased({1, 2})};
  if (num_dims >= 5) {
    spec.planted_subspaces.push_back(
        Subspace::FromOneBased({3, 4, 5}));
  }
  spec.displacement = displacement;
  auto generated = data::GenerateSubspaceOutliers(spec, &rng);
  if (!generated.ok()) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 generated.status().ToString().c_str());
    std::abort();
  }
  return std::move(generated).value();
}

/// Prints the experiment banner expected in bench_output.txt.
inline void Banner(const std::string& id, const std::string& title) {
  std::printf("\n=== %s — %s ===\n", id.c_str(), title.c_str());
}

}  // namespace hos::bench

#endif  // HOS_BENCH_BENCH_UTIL_H_
