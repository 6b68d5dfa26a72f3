#include "src/data/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

namespace hos::data {
namespace {

TEST(CsvTest, ParseWithHeader) {
  auto result = ParseCsv("x,y\n1.5,2\n3,4.25\n");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Dataset& ds = *result;
  EXPECT_EQ(ds.num_dims(), 2);
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.column_names(), (std::vector<std::string>{"x", "y"}));
  EXPECT_DOUBLE_EQ(ds.At(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(ds.At(1, 1), 4.25);
}

TEST(CsvTest, ParseWithoutHeader) {
  CsvOptions options;
  options.has_header = false;
  auto result = ParseCsv("1,2\n3,4\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);
  EXPECT_EQ(result->column_names()[0], "dim1");
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = ';';
  auto result = ParseCsv("a;b\n1;2\n", options);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->At(0, 1), 2.0);
}

TEST(CsvTest, SkipsBlankLines) {
  auto result = ParseCsv("x,y\n1,2\n\n3,4\n\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);

  // A blank line before the header is skipped too: the first non-blank
  // line is the header, not a data row.
  auto leading = ParseCsv("\nx,y\n1,2\n3,4\n");
  ASSERT_TRUE(leading.ok()) << leading.status().ToString();
  EXPECT_EQ(leading->size(), 2u);
  EXPECT_EQ(leading->column_names(), (std::vector<std::string>{"x", "y"}));
  EXPECT_DOUBLE_EQ(leading->At(1, 1), 4.0);
}

TEST(CsvTest, HandlesCrLf) {
  auto result = ParseCsv("x,y\r\n1,2\r\n");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->At(0, 0), 1.0);
}

TEST(CsvTest, TrimsSpacesAroundNumbers) {
  auto result = ParseCsv("x,y\n 1 , 2 \n");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->At(0, 1), 2.0);
}

TEST(CsvTest, RejectsRaggedRows) {
  auto result = ParseCsv("x,y\n1,2\n3\n");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(CsvTest, RejectsNonNumeric) {
  auto result = ParseCsv("x,y\n1,two\n");
  ASSERT_FALSE(result.ok());
  // Error message pinpoints the cell.
  EXPECT_NE(result.status().message().find("row 2"), std::string::npos);
}

TEST(CsvTest, RejectsEmptyInput) {
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(CsvTest, HeaderOnlyYieldsEmptyDataset) {
  auto result = ParseCsv("x,y\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_dims(), 2);
  EXPECT_TRUE(result->empty());
}

TEST(CsvTest, RoundTripThroughText) {
  Dataset ds(2);
  ASSERT_TRUE(ds.SetColumnNames({"alpha", "beta"}).ok());
  ds.Append(std::vector<double>{0.125, -3.5});
  ds.Append(std::vector<double>{7.0, 0.0});
  auto parsed = ParseCsv(ToCsv(ds));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), ds.size());
  EXPECT_EQ(parsed->column_names(), ds.column_names());
  for (PointId i = 0; i < ds.size(); ++i) {
    for (int j = 0; j < ds.num_dims(); ++j) {
      EXPECT_DOUBLE_EQ(parsed->At(i, j), ds.At(i, j));
    }
  }
}

// Exporting a slid window: rows deleted and sealed below the base whose
// chunk was reclaimed must not be read, and no dead row is exported — the
// text parses back to exactly the survivors, in id order.
TEST(CsvTest, ExportOfAReclaimedDatasetRoundTripsToItsLiveRows) {
  constexpr int kDims = 3;
  Dataset dataset(kDims);
  for (int i = 0; i < 600; ++i) {
    const std::vector<double> row = {i * 1.5, i + 0.25, -0.125 * i};
    dataset.Append(row);
  }
  std::vector<PointId> dead;
  for (PointId id = 0; id < Dataset::kChunkRows; ++id) dead.push_back(id);
  dead.push_back(300);  // dead, but its chunk stays allocated
  ASSERT_TRUE(dataset.DeleteRows(dead).ok());
  dataset.SealBase();
  ASSERT_EQ(dataset.ReclaimDeadChunks(), 1u);

  auto parsed = ParseCsv(ToCsv(dataset));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), dataset.live_size());
  PointId next = 0;
  for (PointId id = 0; id < dataset.size(); ++id) {
    if (!dataset.IsLive(id)) continue;
    for (int j = 0; j < kDims; ++j) {
      ASSERT_EQ(parsed->At(next, j), dataset.At(id, j))
          << "row " << id << " dim " << j;
    }
    ++next;
  }
}

TEST(CsvTest, FileRoundTrip) {
  Dataset ds(1);
  ds.Append(std::vector<double>{42.0});
  std::string path =
      (std::filesystem::temp_directory_path() / "hos_csv_test.csv").string();
  ASSERT_TRUE(WriteCsvFile(ds, path).ok());
  auto loaded = ReadCsvFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->At(0, 0), 42.0);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsIoError) {
  auto result = ReadCsvFile("/nonexistent/definitely/not/here.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIoError());
}

}  // namespace
}  // namespace hos::data
