// Shape fuzzing for the X-tree's STR bulk load: across dataset sizes around
// the leaf capacity (0, 1, 25, 26 rows and up), dimensionalities from 1 to
// the lattice's 58, duplicate-heavy data and tombstones at and after the
// build, the leaf table must pass CheckInvariants and every kNN and range
// answer must equal the scalar oracle's, bitwise.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/data/generator.h"
#include "src/index/xtree.h"
#include "tests/testutil/knn_oracle.h"

namespace hos::index {
namespace {

using knn::KnnQuery;
using knn::MetricKind;

enum class Data {
  kUniform,
  kDuplicates,
  /// Duplicates, with rows tombstoned before the build and after it.
  kTombstones,
};

using FuzzParam = std::tuple<size_t, int, Data>;

class XTreeFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

Subspace RandomSubspace(int d, Rng* rng) {
  uint64_t mask = 0;
  for (int dim = 0; dim < d; ++dim) {
    if (rng->Bernoulli(0.5)) mask |= uint64_t{1} << dim;
  }
  if (mask == 0) mask = uint64_t{1} << rng->UniformInt(0, d - 1);
  return Subspace(mask);
}

/// Tombstones about a fifth of the live rows.
void DeleteSome(data::Dataset* ds, Rng* rng) {
  std::vector<data::PointId> dead;
  for (data::PointId id = 0; id < ds->size(); ++id) {
    if (ds->IsLive(id) && rng->Bernoulli(0.2)) dead.push_back(id);
  }
  ASSERT_TRUE(ds->DeleteRows(dead).ok());
}

TEST_P(XTreeFuzzTest, InvariantsAndOracleAgreement) {
  const auto [n, d, kind] = GetParam();
  Rng rng(n * 1000 + static_cast<uint64_t>(d) * 10 +
          static_cast<uint64_t>(kind));
  const MetricKind metric = static_cast<MetricKind>((n + d) % 3);
  data::Dataset ds = kind == Data::kUniform
                         ? data::GenerateUniform(n, d, &rng)
                         : testutil::MakeDuplicateHeavy(n, d, &rng);
  if (kind == Data::kTombstones) DeleteSome(&ds, &rng);

  auto tree = XTree::BulkLoad(ds, metric);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok())
      << tree->CheckInvariants().ToString();
  const XTreeStats stats = tree->ComputeStats();
  EXPECT_EQ(stats.num_points, ds.live_size());
  EXPECT_GE(stats.num_leaves * XTree::kLeafCapacity, ds.live_size());

  if (kind == Data::kTombstones) {
    DeleteSome(&ds, &rng);
    ASSERT_TRUE(tree->CheckInvariants().ok())
        << "after deletes: " << tree->CheckInvariants().ToString();
  }

  for (int trial = 0; trial < 15; ++trial) {
    std::vector<double> q(d);
    KnnQuery query;
    if (n > 0 && trial % 2 == 0) {
      const auto row = static_cast<data::PointId>(
          rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      q = ds.RowCopy(row);
      query.exclude = row;
    } else {
      for (auto& v : q) v = rng.Uniform(-0.2, 1.2);
    }
    query.point = q;
    query.subspace = RandomSubspace(d, &rng);
    query.k = trial == 1 ? static_cast<int>(n) + 2
                         : 1 + static_cast<int>(rng.UniformInt(0, 11));
    const std::string label = "trial " + std::to_string(trial);
    EXPECT_EQ(tree->Search(query),
              testutil::OracleKnn(ds, q, query.subspace, metric,
                                  query.exclude, query.k))
        << label;
    const double radius = rng.Uniform(0.0, 0.8);
    EXPECT_EQ(tree->RangeSearch(q, query.subspace, radius),
              testutil::OracleRange(ds, q, query.subspace, metric, radius))
        << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, XTreeFuzzTest,
    ::testing::Combine(::testing::Values(size_t{0}, size_t{1}, size_t{25},
                                         size_t{26}, size_t{130},
                                         size_t{700}),
                       ::testing::Values(1, 8, 32, 58),
                       ::testing::Values(Data::kUniform, Data::kDuplicates,
                                         Data::kTombstones)),
    [](const auto& info) {
      const Data kind = std::get<2>(info.param);
      std::string name = "n";
      name += std::to_string(std::get<0>(info.param));
      name += "_d";
      name += std::to_string(std::get<1>(info.param));
      name += kind == Data::kUniform      ? "_uniform"
              : kind == Data::kDuplicates ? "_duplicates"
                                          : "_tombstones";
      return name;
    });

}  // namespace
}  // namespace hos::index
