// Tests for the cost model evaluator and the AGD/GD/BlackBox optimizers
// (§5.3, §6.6).
#include <numeric>

#include <gtest/gtest.h>

#include "src/core/augmented_grid.h"
#include "src/core/cost_model.h"
#include "src/core/optimizer.h"
#include "src/datasets/synthetic.h"
#include "src/datasets/tpch.h"
#include "tests/test_support.h"

namespace tsunami {
namespace {

std::vector<uint32_t> AllRows(const Dataset& data) {
  std::vector<uint32_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), 0u);
  return rows;
}

AgdOptions FastOptions() {
  AgdOptions options;
  options.max_sample_points = 1024;
  options.max_sample_queries = 48;
  options.max_iters = 3;
  options.max_cells = 1 << 14;
  return options;
}

TEST(CostModelTest, MorePartitionsReduceScanCost) {
  Benchmark bench = MakeUniformBenchmark(3, 30000, 121, 30);
  std::vector<uint32_t> rows = AllRows(bench.data);
  GridCostEvaluator eval(bench.data, rows, bench.workload, 2048, 48, 7);
  Skeleton s = Skeleton::AllIndependent(3);
  CostWeights w;
  double coarse = eval.Cost(s, {1, 1, 1}, w);
  double fine = eval.Cost(s, {8, 8, 8}, w);
  EXPECT_LT(fine, coarse);
}

TEST(CostModelTest, TooManyPartitionsRaiseLookupCost) {
  Benchmark bench = MakeUniformBenchmark(3, 20000, 122, 30);
  std::vector<uint32_t> rows = AllRows(bench.data);
  GridCostEvaluator eval(bench.data, rows, bench.workload, 2048, 48, 7);
  Skeleton s = Skeleton::AllIndependent(3);
  CostWeights w;
  w.w0 = 100000.0;  // Make lookups dominate.
  double few = eval.Cost(s, {2, 2, 2}, w);
  double many = eval.Cost(s, {64, 64, 64}, w);
  EXPECT_LT(few, many);
}

TEST(CostModelTest, DetectsTightCorrelationForFm) {
  Benchmark bench = MakeScalingBenchmark(4, 20000, true, 123, 20);
  std::vector<uint32_t> rows = AllRows(bench.data);
  GridCostEvaluator eval(bench.data, rows, bench.workload, 2048, 48, 7);
  // dim2 = dim0 ± 1%: tight; dim3 = dim1 ± 10%: loose.
  EXPECT_LT(eval.FmErrorBandRatio(2, 0), 0.05);
  EXPECT_GT(eval.FmErrorBandRatio(3, 1), 0.15);
  EXPECT_GT(eval.FmErrorBandRatio(1, 0), 0.5);  // Uncorrelated.
  EXPECT_GT(eval.correlation(2, 0), 0.99);
}

TEST(CostModelTest, EmptyCellFractionSeesCorrelation) {
  Benchmark bench = MakeScalingBenchmark(4, 20000, true, 124, 20);
  std::vector<uint32_t> rows = AllRows(bench.data);
  GridCostEvaluator eval(bench.data, rows, bench.workload, 4096, 48, 7);
  // Correlated pair concentrates mass near the diagonal of the hyperplane.
  EXPECT_GT(eval.EmptyCellFraction(3, 1), 0.25);
  EXPECT_LT(eval.EmptyCellFraction(1, 0), 0.25);  // Independent pair.
}

TEST(CostModelTest, PredictionTracksActualCounters) {
  // The model's feature estimates (ranges, scanned) should land within a
  // small factor of the real execution counters on a built grid.
  Benchmark bench = MakeUniformBenchmark(3, 40000, 125, 40);
  std::vector<uint32_t> rows = AllRows(bench.data);
  GridCostEvaluator eval(bench.data, rows, bench.workload, 4096, 64, 7);
  Skeleton s = Skeleton::AllIndependent(3);
  std::vector<int> partitions = {8, 8, 4};
  CostWeights w;
  w.w0 = 0.0;
  w.w1 = 1.0;  // Cost == scanned * filtered_dims.

  AugmentedGrid grid;
  grid.Build(bench.data, &rows, s, partitions, {});
  ColumnStore store(bench.data, rows);
  grid.Attach(&store, 0);
  double predicted = 0.0, actual = 0.0;
  for (const Query& q : bench.workload) {
    predicted += eval.PredictQueryNanos(s, partitions, w, q);
    QueryResult result;
    ScanGrid(grid, store, q, &result);
    actual += static_cast<double>(result.scanned) * q.filters.size();
  }
  ASSERT_GT(actual, 0.0);
  EXPECT_GT(predicted / actual, 0.5);
  EXPECT_LT(predicted / actual, 2.0);
}

TEST(OptimizerTest, ImprovesOverInitialCost) {
  Benchmark bench = MakeTpchBenchmark(30000, 126, 20);
  std::vector<uint32_t> rows = AllRows(bench.data);
  AgdOptions options = FastOptions();
  GridCostEvaluator eval(bench.data, rows, bench.workload,
                         options.max_sample_points,
                         options.max_sample_queries, options.seed);
  GridPlan agd = OptimizeGridWithEvaluator(eval, OptimizeMethod::kAgd, options);
  // Compare against the naive one-cell grid.
  double naive = eval.Cost(Skeleton::AllIndependent(8),
                           std::vector<int>(8, 1), options.weights);
  EXPECT_LT(agd.predicted_cost, naive);
  EXPECT_TRUE(agd.skeleton.Validate());
}

TEST(OptimizerTest, AgdFindsAugmentationOnCorrelatedData) {
  Benchmark bench = MakeScalingBenchmark(8, 30000, true, 127, 30);
  std::vector<uint32_t> rows = AllRows(bench.data);
  GridPlan plan = OptimizeGrid(bench.data, rows, bench.workload,
                               OptimizeMethod::kAgd, FastOptions());
  // Half the dimensions are (anti-)correlated copies: AGD should map or
  // condition at least one of them.
  EXPECT_GE(plan.skeleton.NumMapped() + plan.skeleton.NumConditional(), 1);
}

TEST(OptimizerTest, IndependentOnlyNeverAugments) {
  Benchmark bench = MakeScalingBenchmark(6, 20000, true, 128, 20);
  std::vector<uint32_t> rows = AllRows(bench.data);
  AgdOptions options = FastOptions();
  options.independent_only = true;
  GridPlan plan = OptimizeGrid(bench.data, rows, bench.workload,
                               OptimizeMethod::kAgd, options);
  EXPECT_EQ(plan.skeleton.NumMapped(), 0);
  EXPECT_EQ(plan.skeleton.NumConditional(), 0);
}

TEST(OptimizerTest, MethodOrderingOnCorrelatedData) {
  // §6.6 expectation: AGD <= GD (same init, strictly more moves) and AGD
  // generally beats black-box basin hopping.
  Benchmark bench = MakeScalingBenchmark(6, 30000, true, 129, 30);
  std::vector<uint32_t> rows = AllRows(bench.data);
  AgdOptions options = FastOptions();
  GridCostEvaluator eval(bench.data, rows, bench.workload,
                         options.max_sample_points,
                         options.max_sample_queries, options.seed);
  GridPlan agd = OptimizeGridWithEvaluator(eval, OptimizeMethod::kAgd, options);
  GridPlan gd = OptimizeGridWithEvaluator(eval, OptimizeMethod::kGd, options);
  GridPlan ni =
      OptimizeGridWithEvaluator(eval, OptimizeMethod::kAgdNaiveInit, options);
  EXPECT_LE(agd.predicted_cost, gd.predicted_cost + 1e-9);
  // AGD-NI must be able to escape the naive skeleton into something valid.
  EXPECT_TRUE(ni.skeleton.Validate());
}

TEST(OptimizerTest, EmptyWorkloadYieldsTrivialPlan) {
  Benchmark bench = MakeUniformBenchmark(3, 1000, 130, 5);
  std::vector<uint32_t> rows = AllRows(bench.data);
  GridPlan plan = OptimizeGrid(bench.data, rows, Workload{},
                               OptimizeMethod::kAgd, FastOptions());
  EXPECT_EQ(plan.partitions, std::vector<int>(3, 1));
}

TEST(OptimizerTest, PartitionsRespectCellCap) {
  Benchmark bench = MakeTpchBenchmark(20000, 131, 20);
  std::vector<uint32_t> rows = AllRows(bench.data);
  AgdOptions options = FastOptions();
  options.max_cells = 256;
  GridPlan plan = OptimizeGrid(bench.data, rows, bench.workload,
                               OptimizeMethod::kAgd, options);
  int64_t cells = 1;
  for (int d : plan.skeleton.GridDims()) cells *= plan.partitions[d];
  EXPECT_LE(cells, 256);
}

TEST(CalibrationTest, WeightsArePlausible) {
  CostWeights w = CalibrateCostWeights();
  EXPECT_GT(w.w0, 10.0);
  EXPECT_LT(w.w0, 100000.0);
  EXPECT_GT(w.w1, 0.1);
  EXPECT_LT(w.w1, 1000.0);
  // Per-code-width scan terms are calibrated (non-zero) when narrowing is
  // on, and stay 0 — falling back to w1 — when it is disabled, so the
  // model always prices the kernel execution actually runs.
  if (EncodingEnabledByDefault()) {
    for (double term : {w.w1_u8, w.w1_u16, w.w1_u32}) {
      EXPECT_GT(term, 0.05);
      EXPECT_LT(term, 1000.0);
    }
    EXPECT_EQ(w.ScanCostForSpan(100.0), w.w1_u8);
    EXPECT_EQ(w.ScanCostForSpan(1000.0), w.w1_u16);
    EXPECT_EQ(w.ScanCostForSpan(100000.0), w.w1_u32);
  } else {
    EXPECT_EQ(w.w1_u8, 0.0);
    EXPECT_EQ(w.ScanCostForSpan(100.0), w.w1);
  }
  EXPECT_EQ(w.ScanCostForSpan(-1.0), w.w1);   // Unknown span.
  EXPECT_EQ(w.ScanCostForSpan(1e18), w.w1);   // Raw 64-bit blocks.
  CostWeights defaults;
  EXPECT_EQ(defaults.ScanCostForSpan(100.0), defaults.w1);
}

}  // namespace
}  // namespace tsunami
