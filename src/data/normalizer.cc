#include "src/data/normalizer.h"

#include <cassert>
#include <cmath>

namespace hos::data {
namespace {
// A column with (near-)zero spread maps to constant 0 instead of dividing
// by zero.
constexpr double kMinScale = 1e-12;
}  // namespace

Normalizer Normalizer::Fit(const Dataset& dataset, NormalizationKind kind) {
  const int d = dataset.num_dims();
  std::vector<double> offset(d, 0.0), scale(d, 1.0);
  if (kind != NormalizationKind::kNone && !dataset.empty()) {
    auto stats = ComputeColumnStats(dataset);
    for (int j = 0; j < d; ++j) {
      if (kind == NormalizationKind::kMinMax) {
        offset[j] = stats[j].min;
        scale[j] = std::max(stats[j].max - stats[j].min, kMinScale);
      } else {  // kZScore
        offset[j] = stats[j].mean;
        // std::max returns its first argument for a NaN stddev, so a
        // non-finite spread stays visible to FirstNonFiniteScale.
        scale[j] = std::max(stats[j].stddev, kMinScale);
      }
    }
  }
  return Normalizer(kind, std::move(offset), std::move(scale));
}

int Normalizer::FirstNonFiniteScale() const {
  for (int j = 0; j < num_dims(); ++j) {
    if (!std::isfinite(scale_[j])) return j;
  }
  return -1;
}

void Normalizer::Apply(Dataset* dataset) const {
  if (kind_ == NormalizationKind::kNone) return;
  assert(dataset->num_dims() == num_dims());
  for (PointId i = 0; i < dataset->size(); ++i) {
    if (!dataset->IsLive(i)) continue;
    for (int j = 0; j < num_dims(); ++j) {
      dataset->Set(i, j, (dataset->At(i, j) - offset_[j]) / scale_[j]);
    }
  }
}

void Normalizer::ApplyToPoint(std::vector<double>* point) const {
  if (kind_ == NormalizationKind::kNone) return;
  assert(static_cast<int>(point->size()) == num_dims());
  for (int j = 0; j < num_dims(); ++j) {
    (*point)[j] = ((*point)[j] - offset_[j]) / scale_[j];
  }
}

void Normalizer::Invert(std::vector<double>* point) const {
  if (kind_ == NormalizationKind::kNone) return;
  assert(static_cast<int>(point->size()) == num_dims());
  for (int j = 0; j < num_dims(); ++j) {
    (*point)[j] = (*point)[j] * scale_[j] + offset_[j];
  }
}

}  // namespace hos::data
