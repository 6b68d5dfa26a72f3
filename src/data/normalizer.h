// Column normalisation. OD sums per-dimension distance contributions, so
// dimensions must be on comparable scales for a single global threshold T
// (paper §1 problem statement) to be meaningful.

#ifndef HOS_DATA_NORMALIZER_H_
#define HOS_DATA_NORMALIZER_H_

#include <vector>

#include "src/common/status.h"
#include "src/data/dataset.h"

namespace hos::data {

enum class NormalizationKind {
  kNone,
  kMinMax,  ///< maps each column to [0, 1]
  kZScore,  ///< maps each column to zero mean / unit variance
};

/// Fitted, invertible column transform. Fit on a dataset, then apply to the
/// dataset itself and to any external query point so both live in the same
/// space.
class Normalizer {
 public:
  /// Learns column parameters from `dataset`.
  static Normalizer Fit(const Dataset& dataset, NormalizationKind kind);

  /// Transforms every cell of the live rows of `dataset` in place. Dead
  /// rows are skipped: nothing reads them again, and their storage may
  /// already be reclaimed (Dataset::ReclaimDeadChunks).
  void Apply(Dataset* dataset) const;

  /// Transforms a single point in place; size must equal num_dims.
  void ApplyToPoint(std::vector<double>* point) const;

  /// Inverse-transforms a single point in place.
  void Invert(std::vector<double>* point) const;

  /// The first dimension whose fitted scale is not finite (a column whose
  /// spread overflows a double), or -1.
  int FirstNonFiniteScale() const;

  NormalizationKind kind() const { return kind_; }
  int num_dims() const { return static_cast<int>(offset_.size()); }

 private:
  Normalizer(NormalizationKind kind, std::vector<double> offset,
             std::vector<double> scale)
      : kind_(kind), offset_(std::move(offset)), scale_(std::move(scale)) {}

  // Transform: x' = (x - offset) / scale, with scale clamped away from 0.
  NormalizationKind kind_;
  std::vector<double> offset_;
  std::vector<double> scale_;
};

}  // namespace hos::data

#endif  // HOS_DATA_NORMALIZER_H_
