// Scalar kNN references and irregular leaf layouts for the kNN suites.
//
// OracleKnn / OracleRange answer through knn::SubspaceDistance row by row,
// with no kernel and no leaf table, so they are the reference for every
// layout of the one kNN engine (knn::LeafTableKnn): the X-tree's STR
// leaves, the linear scan's single leaf, and the random layouts below.
//
// RandomLeafEngine builds that engine over a seeded random partition of the
// live rows, the shapes STR never makes: leaves of 1 row and up, boxes that
// overlap (rows are shuffled, or slabbed along one random dimension), leaves
// in random order, and rows dead at build past the last leaf. With
// MakeDuplicateHeavy data, exact duplicates spread over several leaves, so
// ties at the k-th distance cross leaf boundaries.

#ifndef HOS_TESTS_TESTUTIL_KNN_ORACLE_H_
#define HOS_TESTS_TESTUTIL_KNN_ORACLE_H_

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/common/subspace.h"
#include "src/data/dataset.h"
#include "src/knn/knn_engine.h"
#include "src/knn/leaf_table_knn.h"
#include "src/knn/metric.h"

namespace hos::testutil {

/// The k nearest live rows of `q` in `subspace` except `exclude`,
/// ascending (distance, id), through the scalar metric path.
std::vector<knn::Neighbor> OracleKnn(const data::Dataset& ds,
                                     std::span<const double> q,
                                     const Subspace& subspace,
                                     knn::MetricKind metric,
                                     std::optional<data::PointId> exclude,
                                     int k);

/// Every live row within `radius` (inclusive) of `q`, ascending
/// (distance, id), through the scalar metric path.
std::vector<knn::Neighbor> OracleRange(const data::Dataset& ds,
                                       std::span<const double> q,
                                       const Subspace& subspace,
                                       knn::MetricKind metric, double radius);

/// `n` rows of `d` dimensions with clusters of exact duplicates (each drawn
/// row appended 1..4 times), one zero-variance dimension, values in [0, 1].
data::Dataset MakeDuplicateHeavy(size_t n, int d, Rng* rng);

/// The kNN engine over a random partition of `ds`'s live rows into leaves
/// of 1..max_leaf_rows rows (backend "random_leaves"). `ds` must outlive
/// it.
knn::LeafTableKnn RandomLeafEngine(const data::Dataset& ds,
                                   knn::MetricKind metric,
                                   size_t max_leaf_rows, Rng* rng);

}  // namespace hos::testutil

#endif  // HOS_TESTS_TESTUTIL_KNN_ORACLE_H_
