#include "tests/testutil/adversarial_gen.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "src/common/rng.h"

namespace hos::testutil {
namespace {

/// A uniformly random direction on the unit sphere in `dims` dimensions
/// (normalized Gaussian vector; resampled in the measure-zero case where
/// the norm underflows).
std::vector<double> RandomUnit(int dims, Rng* rng) {
  std::vector<double> u(dims);
  double norm = 0.0;
  do {
    norm = 0.0;
    for (int d = 0; d < dims; ++d) {
      u[d] = rng->Gaussian(0.0, 1.0);
      norm += u[d] * u[d];
    }
  } while (norm <= 1e-30);
  norm = std::sqrt(norm);
  for (int d = 0; d < dims; ++d) u[d] /= norm;
  return u;
}

}  // namespace

AdversarialDataset MakeAdversarial(const AdversarialSpec& spec) {
  Rng rng(spec.seed);
  AdversarialDataset out;
  out.k = spec.k;
  out.threshold = spec.threshold;

  // --- Background cloud in [0, 1]^d, optionally with the last dimension an
  // affine copy of the first. The epsilon noise keeps rows distinct without
  // breaking the correlation the histogram bounds will wrongly treat as
  // independent.
  for (size_t i = 0; i < spec.background_rows; ++i) {
    std::vector<double> row(spec.num_dims);
    for (int d = 0; d < spec.num_dims; ++d) row[d] = rng.Uniform(0.0, 1.0);
    if (spec.correlated_dims && spec.num_dims >= 2) {
      row[spec.num_dims - 1] =
          0.25 + 0.5 * row[0] + rng.Gaussian(0.0, 1e-3);
    }
    out.rows.push_back(std::move(row));
  }

  // --- Near-threshold bands: each band is a probe at a center far from the
  // background cloud plus a ring of k+2 neighbours at a radius tuned so the
  // probe's full-space OD (sum of k nearest distances, L2) lands at
  // threshold * (1 ± a few percent). Bands below num_bands/2 sit just under
  // T, bands above just over, so verdicts straddle the threshold.
  std::vector<data::PointId> first_ring_member;
  for (int b = 0; b < spec.num_bands; ++b) {
    const double scale = 1.0 + 0.03 * (b - spec.num_bands / 2);
    const double radius =
        (spec.threshold / std::max(spec.k, 1)) * scale;
    std::vector<double> center(spec.num_dims);
    for (int d = 0; d < spec.num_dims; ++d) {
      center[d] = 1.5 + 0.75 * b + rng.Uniform(-0.1, 0.1);
    }
    out.probes.push_back(static_cast<data::PointId>(out.rows.size()));
    out.rows.push_back(center);
    for (int j = 0; j < spec.k + 2; ++j) {
      const std::vector<double> u = RandomUnit(spec.num_dims, &rng);
      std::vector<double> ring(spec.num_dims);
      for (int d = 0; d < spec.num_dims; ++d) {
        ring[d] = center[d] + radius * u[d];
      }
      if (j == 0) {
        first_ring_member.push_back(
            static_cast<data::PointId>(out.rows.size()));
      }
      out.rows.push_back(std::move(ring));
    }
  }

  // --- Exact duplicates of the earliest background rows, appended last so
  // the pairs are far apart in id order (and in the density summary's
  // row-major cell array).
  const int dup_count = std::min<int>(
      spec.duplicates, static_cast<int>(spec.background_rows));
  for (int i = 0; i < dup_count; ++i) {
    out.rows.push_back(out.rows[static_cast<size_t>(i)]);
  }

  // --- Tombstones: one ring member per band first (stressing summaries
  // built before the delete — the stale histogram still counts the dead
  // neighbour's cell), then background rows at a fixed stride. Probes are
  // never tombstoned.
  for (data::PointId id : first_ring_member) {
    if (out.tombstones.size() >= spec.tombstones) break;
    out.tombstones.push_back(id);
  }
  for (size_t i = 2; i < spec.background_rows && out.tombstones.size() <
                                                     spec.tombstones;
       i += 7) {
    out.tombstones.push_back(static_cast<data::PointId>(i));
  }
  return out;
}

data::Dataset ToDataset(const AdversarialDataset& scenario) {
  const int num_dims =
      scenario.rows.empty() ? 1 : static_cast<int>(scenario.rows[0].size());
  data::Dataset dataset(num_dims);
  for (const std::vector<double>& row : scenario.rows) {
    dataset.Append(std::span<const double>(row));
  }
  return dataset;
}

}  // namespace hos::testutil
