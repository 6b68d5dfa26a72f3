#include "src/data/dataset.h"

#include <gtest/gtest.h>

#include <cmath>

namespace hos::data {
namespace {

TEST(DatasetTest, EmptyConstruction) {
  Dataset ds(3);
  EXPECT_EQ(ds.num_dims(), 3);
  EXPECT_EQ(ds.size(), 0u);
  EXPECT_TRUE(ds.empty());
  EXPECT_EQ(ds.column_names(),
            (std::vector<std::string>{"dim1", "dim2", "dim3"}));
}

TEST(DatasetTest, AppendAndAccess) {
  Dataset ds(2);
  PointId a = ds.Append(std::vector<double>{1.0, 2.0});
  PointId b = ds.Append(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_DOUBLE_EQ(ds.At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(ds.At(1, 0), 3.0);
  auto row = ds.Row(1);
  EXPECT_DOUBLE_EQ(row[0], 3.0);
  EXPECT_DOUBLE_EQ(row[1], 4.0);
}

TEST(DatasetTest, SetMutatesCell) {
  Dataset ds(2);
  ds.Append(std::vector<double>{1.0, 2.0});
  ds.Set(0, 0, 9.0);
  EXPECT_DOUBLE_EQ(ds.At(0, 0), 9.0);
}

TEST(DatasetTest, RowCopyIsIndependent) {
  Dataset ds(2);
  ds.Append(std::vector<double>{1.0, 2.0});
  auto copy = ds.RowCopy(0);
  copy[0] = 100.0;
  EXPECT_DOUBLE_EQ(ds.At(0, 0), 1.0);
}

TEST(DatasetTest, FromRowsValidatesShape) {
  auto ok = Dataset::FromRows({{1.0, 2.0}, {3.0, 4.0}}, 2);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->size(), 2u);

  auto bad = Dataset::FromRows({{1.0, 2.0}, {3.0}}, 2);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());

  auto bad_dims = Dataset::FromRows({}, 0);
  EXPECT_FALSE(bad_dims.ok());
}

TEST(DatasetTest, SetColumnNamesValidated) {
  Dataset ds(2);
  EXPECT_TRUE(ds.SetColumnNames({"x", "y"}).ok());
  EXPECT_EQ(ds.column_names()[0], "x");
  EXPECT_FALSE(ds.SetColumnNames({"only-one"}).ok());
}

TEST(DatasetVersionTest, AppendsAndSetsBumpTheVersion) {
  Dataset ds(2);
  EXPECT_EQ(ds.version(), 0u);
  ds.Append(std::vector<double>{1.0, 2.0});
  EXPECT_EQ(ds.version(), 1u);
  ds.Append(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(ds.version(), 2u);
  EXPECT_EQ(ds.last_overwrite_version(), 0u);  // appends are not overwrites

  ds.Set(0, 1, 5.0);
  EXPECT_EQ(ds.version(), 3u);
  EXPECT_EQ(ds.last_overwrite_version(), 3u);

  ds.Append(std::vector<double>{6.0, 7.0});
  EXPECT_EQ(ds.version(), 4u);
  EXPECT_EQ(ds.last_overwrite_version(), 3u);  // sticks at the last Set
}

TEST(DatasetVersionTest, AppendRowsValidatesAtomicallyAndReturnsVersion) {
  Dataset ds(2);
  ds.Append(std::vector<double>{1.0, 2.0});
  auto version = ds.AppendRows({{3.0, 4.0}, {5.0, 6.0}});
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 3u);
  EXPECT_EQ(ds.size(), 3u);

  // A malformed row anywhere in the batch appends nothing.
  auto bad = ds.AppendRows({{7.0, 8.0}, {9.0}});
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
  EXPECT_EQ(ds.size(), 3u);
  EXPECT_EQ(ds.version(), 3u);
}

TEST(DatasetVersionTest, SealBaseTracksTheBaseDeltaSplit) {
  Dataset ds(2);
  ds.Append(std::vector<double>{1.0, 2.0});
  ds.Append(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(ds.base_size(), 0u);  // nothing sealed yet
  EXPECT_EQ(ds.delta_size(), 2u);

  ds.SealBase();
  EXPECT_EQ(ds.base_size(), 2u);
  EXPECT_EQ(ds.delta_size(), 0u);
  EXPECT_DOUBLE_EQ(ds.delta_fraction(), 0.0);

  ds.Append(std::vector<double>{5.0, 6.0});
  ds.Append(std::vector<double>{7.0, 8.0});
  EXPECT_EQ(ds.base_size(), 2u);
  EXPECT_EQ(ds.delta_size(), 2u);
  EXPECT_DOUBLE_EQ(ds.delta_fraction(), 0.5);

  // Sealing at an earlier row count (a rebuild commit whose artifacts
  // were prepared before the last append) clamps to that prefix.
  ds.SealBaseAt(3);
  EXPECT_EQ(ds.base_size(), 3u);
  EXPECT_EQ(ds.delta_size(), 1u);
  ds.SealBaseAt(100);  // clamped to size
  EXPECT_EQ(ds.base_size(), 4u);
}

TEST(ColumnStatsTest, ComputesMinMaxMeanStddev) {
  Dataset ds(2);
  ds.Append(std::vector<double>{1.0, 10.0});
  ds.Append(std::vector<double>{2.0, 10.0});
  ds.Append(std::vector<double>{3.0, 10.0});
  auto stats = ComputeColumnStats(ds);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_DOUBLE_EQ(stats[0].min, 1.0);
  EXPECT_DOUBLE_EQ(stats[0].max, 3.0);
  EXPECT_DOUBLE_EQ(stats[0].mean, 2.0);
  EXPECT_NEAR(stats[0].stddev, std::sqrt(2.0 / 3.0), 1e-12);
  // Constant column: zero spread.
  EXPECT_DOUBLE_EQ(stats[1].stddev, 0.0);
  EXPECT_DOUBLE_EQ(stats[1].mean, 10.0);
}

TEST(ColumnStatsTest, StddevIsAccurateUnderALargeColumnOffset) {
  for (const double offset : {1e6, 1e8, 1e9, 1e10}) {
    Dataset ds(1);
    for (int i = 0; i < 100; ++i) {
      ds.Append(std::vector<double>{offset + 0.001 * i});
    }
    // Reference: two passes over the stored values' differences from the
    // first one (exact subtractions, since they are within a factor of 2).
    const double n = static_cast<double>(ds.size());
    double delta_sum = 0.0;
    for (PointId i = 0; i < ds.size(); ++i) {
      delta_sum += ds.At(i, 0) - ds.At(0, 0);
    }
    const double delta_mean = delta_sum / n;
    double square_sum = 0.0;
    for (PointId i = 0; i < ds.size(); ++i) {
      const double centered = ds.At(i, 0) - ds.At(0, 0) - delta_mean;
      square_sum += centered * centered;
    }
    const double want = std::sqrt(square_sum / n);
    ASSERT_NEAR(want, 0.0288661, 1e-5) << offset;

    const auto stats = ComputeColumnStats(ds);
    EXPECT_NEAR(stats[0].stddev, want, 1e-9 * want) << offset;
    EXPECT_EQ(stats[0].min, offset) << offset;
  }
}

TEST(ColumnStatsTest, OverflowingSpreadIsNotFinite) {
  // An odd count, so the mean is not 0 and Σx²/n - mean² would be
  // Inf - Inf: a NaN that must not read as zero spread.
  Dataset ds(1);
  for (int i = 0; i < 11; ++i) {
    ds.Append(std::vector<double>{i % 2 == 0 ? 1e200 : -1e200});
  }
  EXPECT_FALSE(std::isfinite(ComputeColumnStats(ds)[0].stddev));
}

TEST(ColumnStatsTest, EmptyDatasetYieldsZeros) {
  Dataset ds(2);
  auto stats = ComputeColumnStats(ds);
  EXPECT_EQ(stats.size(), 2u);
  EXPECT_DOUBLE_EQ(stats[0].mean, 0.0);
}

}  // namespace
}  // namespace hos::data
