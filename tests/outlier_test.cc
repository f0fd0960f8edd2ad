// Tests for the functional-mapping outlier buffer (§8 "Complex
// Correlations"): a handful of extreme rows must not blow up the mapping's
// error band, and buffered rows must still be found by every query shape.
#include <numeric>

#include <gtest/gtest.h>

#include "src/baselines/full_scan.h"
#include "src/common/random.h"
#include "src/core/augmented_grid.h"
#include "tests/test_support.h"

namespace tsunami {
namespace {

// y ~ 2x with tight noise, except `num_outliers` rows with wild y values.
Dataset MakeOutlierData(int64_t rows, int num_outliers, uint64_t seed) {
  Rng rng(seed);
  Dataset data(2, {});
  for (int64_t i = 0; i < rows; ++i) {
    Value x = rng.UniformValue(0, 1000000);
    Value y = 2 * x + rng.UniformValue(-50, 50);
    if (i < num_outliers) y = rng.UniformValue(500000000, 600000000);
    data.AppendRow({x, y});
  }
  return data;
}

AugmentedGrid BuildMapped(const Dataset& data, std::vector<uint32_t>* rows,
                          double outlier_fraction) {
  Skeleton s = Skeleton::AllIndependent(2);
  s.dims[1] = {PartitionStrategy::kMapped, 0};  // y mapped onto x.
  AugmentedGrid grid;
  AugmentedGrid::BuildOptions options;
  options.fm_outlier_fraction = outlier_fraction;
  rows->resize(data.size());
  std::iota(rows->begin(), rows->end(), 0u);
  grid.Build(data, rows, s, {16, 1}, options);
  return grid;
}

TEST(OutlierBufferTest, BuffersOnlyTheExtremes) {
  Dataset data = MakeOutlierData(10000, 12, 301);
  std::vector<uint32_t> rows;
  AugmentedGrid grid = BuildMapped(data, &rows, 0.001);
  EXPECT_GE(grid.num_outliers(), 12);          // The wild rows...
  EXPECT_LE(grid.num_outliers(), 10000 / 50);  // ...but not much more.
}

TEST(OutlierBufferTest, CleanDataGetsNoBuffer) {
  Dataset data = MakeOutlierData(10000, 0, 302);
  std::vector<uint32_t> rows;
  AugmentedGrid grid = BuildMapped(data, &rows, 0.001);
  EXPECT_EQ(grid.num_outliers(), 0);
}

TEST(OutlierBufferTest, DisabledByZeroFraction) {
  Dataset data = MakeOutlierData(10000, 12, 303);
  std::vector<uint32_t> rows;
  AugmentedGrid grid = BuildMapped(data, &rows, 0.0);
  EXPECT_EQ(grid.num_outliers(), 0);
}

TEST(OutlierBufferTest, QueriesStillExactOnEveryShape) {
  Dataset data = MakeOutlierData(8000, 10, 304);
  std::vector<uint32_t> rows;
  AugmentedGrid grid = BuildMapped(data, &rows, 0.001);
  ColumnStore store(data, rows);
  grid.Attach(&store, 0);
  FullScanIndex reference(data);
  Rng rng(305);
  for (int trial = 0; trial < 200; ++trial) {
    Query q;
    // Mix: filters on the mapped dim (hitting outlier y values too), the
    // target dim, or both.
    if (trial % 3 != 1) {
      Value lo = rng.UniformValue(0, 600000000);
      q.filters.push_back(
          Predicate{1, lo, lo + rng.UniformValue(0, 100000000)});
    }
    if (trial % 3 != 0) {
      Value lo = rng.UniformValue(0, 1000000);
      q.filters.push_back(Predicate{0, lo, lo + rng.UniformValue(0, 300000)});
    }
    QueryResult got;
    ScanGrid(grid, store, q, &got);
    ASSERT_EQ(got.agg, reference.Execute(q).agg) << "trial " << trial;
  }
}

TEST(OutlierBufferTest, OutlierOnlyQueriesAreFound) {
  // Queries selecting exclusively the outlier band: the mapped effective
  // range over x is empty, so only the buffer can answer.
  Dataset data = MakeOutlierData(8000, 10, 306);
  std::vector<uint32_t> rows;
  AugmentedGrid grid = BuildMapped(data, &rows, 0.001);
  ColumnStore store(data, rows);
  grid.Attach(&store, 0);
  FullScanIndex reference(data);
  Query q;
  q.filters = {Predicate{1, 500000000, 600000000}};
  QueryResult got;
  ScanGrid(grid, store, q, &got);
  QueryResult expected = reference.Execute(q);
  EXPECT_EQ(got.agg, expected.agg);
  EXPECT_EQ(got.agg, 10);
}

TEST(OutlierBufferTest, BufferShrinksScannedPoints) {
  // With the buffer, a narrow y-filter maps to a narrow x-range; without
  // it the error band spans the outliers and forces huge scans.
  Dataset data = MakeOutlierData(20000, 10, 307);
  std::vector<uint32_t> rows_with, rows_without;
  AugmentedGrid with_buffer = BuildMapped(data, &rows_with, 0.001);
  AugmentedGrid without_buffer = BuildMapped(data, &rows_without, 0.0);
  ColumnStore store_with(data, rows_with);
  ColumnStore store_without(data, rows_without);
  with_buffer.Attach(&store_with, 0);
  without_buffer.Attach(&store_without, 0);
  Query q;
  q.filters = {Predicate{1, 1000000, 1040000}};  // Narrow y band.
  QueryResult scanned_with, scanned_without;
  ScanGrid(with_buffer, store_with, q, &scanned_with);
  ScanGrid(without_buffer, store_without, q, &scanned_without);
  EXPECT_EQ(scanned_with.agg, scanned_without.agg);
  EXPECT_LT(scanned_with.scanned * 4, scanned_without.scanned);
}

}  // namespace
}  // namespace tsunami
