// Reproduces Fig. 12: (a) the component drill-down — Flood, Augmented Grid
// only, Grid Tree only, and full Tsunami — and (b) the optimization-method
// comparison (GD, Black Box, AGD-NI, AGD) with predicted vs actual query
// time, including the cost model's average error (paper: ~15%).
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench/bench_util.h"
#include "src/core/augmented_grid.h"
#include "src/core/cost_model.h"
#include "src/core/optimizer.h"

namespace tsunami {
namespace {

void DrilldownA(const std::vector<Benchmark>& benches) {
  bench::PrintHeader("Fig 12a: Component drill-down (avg query us)");
  std::printf("%-10s %10s %14s %14s %10s\n", "dataset", "Flood",
              "AugGrid-only", "GridTree-only", "Tsunami");
  for (const Benchmark& b : benches) {
    FloodOptions flood_options;
    flood_options.agd = bench::BenchAgd();
    FloodIndex flood(b.data, b.workload, flood_options);

    TsunamiOptions ag_only = bench::BenchTsunami(b.data.size());
    ag_only.use_grid_tree = false;
    ag_only.name = "AugGridOnly";
    TsunamiIndex ag(b.data, b.workload, ag_only);

    TsunamiOptions gt_only = bench::BenchTsunami(b.data.size());
    gt_only.use_augmentation = false;
    gt_only.name = "GridTreeOnly";
    TsunamiIndex gt(b.data, b.workload, gt_only);

    TsunamiIndex full(b.data, b.workload, bench::BenchTsunami(b.data.size()));

    std::printf("%-10s %10.1f %14.1f %14.1f %10.1f\n", b.name.c_str(),
                bench::MeasureAvgQueryNanos(flood, b.workload, 3) / 1000,
                bench::MeasureAvgQueryNanos(ag, b.workload, 3) / 1000,
                bench::MeasureAvgQueryNanos(gt, b.workload, 3) / 1000,
                bench::MeasureAvgQueryNanos(full, b.workload, 3) / 1000);
  }
  std::printf("shape check: both components beat Flood; Tsunami <= both.\n");
}

void DrilldownB(const std::vector<Benchmark>& benches) {
  bench::PrintHeader(
      "Fig 12b: Optimizer comparison, one grid over the full space");
  CostWeights weights = CalibrateCostWeights();
  std::printf("calibrated cost weights: w0=%.0f ns/range, w1=%.2f ns/value\n",
              weights.w0, weights.w1);
  std::printf("%-10s %-9s %14s %12s %9s\n", "dataset", "method",
              "predicted (us)", "actual (us)", "error");
  struct MethodRow {
    const char* name;
    OptimizeMethod method;
  };
  const MethodRow kMethods[] = {
      {"GD", OptimizeMethod::kGd},
      {"BlackBox", OptimizeMethod::kBlackBox},
      {"AGD-NI", OptimizeMethod::kAgdNaiveInit},
      {"AGD", OptimizeMethod::kAgd},
  };
  std::vector<double> errors;
  for (const Benchmark& b : benches) {
    AgdOptions options = bench::BenchAgd();
    options.weights = weights;
    options.max_iters = 4;
    std::vector<uint32_t> all_rows(b.data.size());
    std::iota(all_rows.begin(), all_rows.end(), 0u);
    GridCostEvaluator eval(b.data, all_rows, b.workload,
                           options.max_sample_points,
                           options.max_sample_queries, options.seed);
    for (const MethodRow& m : kMethods) {
      GridPlan plan = OptimizeGridWithEvaluator(eval, m.method, options);
      // Build the planned grid and measure the real workload.
      std::vector<uint32_t> rows = all_rows;
      AugmentedGrid grid;
      AugmentedGrid::BuildOptions build_options;
      build_options.max_cells = options.max_cells;
      // Use the evaluator's selectivity order so the built grid picks the
      // same sort dimension the prediction assumed.
      build_options.selectivity_order = eval.selectivity_order();
      build_options.sort_dim = plan.sort_dim;
      grid.Build(b.data, &rows, plan.skeleton, plan.partitions,
                 build_options);
      ColumnStore store(b.data, rows);
      grid.Attach(&store, 0);
      Timer timer;
      int64_t sink = 0;
      std::vector<RangeTask> tasks;
      for (int rep = 0; rep < 3; ++rep) {
        for (const Query& q : b.workload) {
          QueryResult r;
          tasks.clear();
          grid.PlanRanges(q, &tasks, &r);
          store.ScanRanges(tasks, q, &r);
          sink += r.agg;
        }
      }
      double actual =
          timer.ElapsedNanos() / (3.0 * b.workload.size());
      if (sink < 0) continue;
      // Predicted time over the full workload under the cost model.
      double predicted = 0.0;
      for (const Query& q : b.workload) {
        predicted += eval.PredictQueryNanos(plan.skeleton, plan.partitions,
                                            weights, q, plan.sort_dim);
      }
      predicted /= static_cast<double>(b.workload.size());
      double err = actual > 0 ? std::abs(predicted - actual) / actual : 0.0;
      errors.push_back(err);
      std::printf("%-10s %-9s %14.1f %12.1f %8.0f%%\n", b.name.c_str(),
                  m.name, predicted / 1000, actual / 1000, err * 100);
    }
  }
  double avg_err = 0.0;
  for (double e : errors) avg_err += e;
  if (!errors.empty()) avg_err /= errors.size();
  std::printf("average cost-model error: %.0f%% (paper: 15%%)\n",
              avg_err * 100);
  std::printf(
      "shape check: gradient-descent variants beat BlackBox; AGD finds\n"
      "low-cost grids even from the naive initialization (AGD-NI).\n");
}

}  // namespace
}  // namespace tsunami

int main() {
  using namespace tsunami;
  std::vector<Benchmark> benches = MakeAllBenchmarks(RowsFromEnv(200000));
  DrilldownA(benches);
  DrilldownB(benches);
  return 0;
}
