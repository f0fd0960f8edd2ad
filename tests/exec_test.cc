// Tests for parallel execution on the task scheduler: parallel workload
// runs, nested (on-worker) execution, and parallel index builds being
// bit-identical to serial builds. Scheduler semantics themselves live in
// task_scheduler_test.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/common/fault_injection.h"
#include "src/common/random.h"
#include "src/core/tsunami.h"
#include "src/exec/runner.h"
#include "src/exec/task_scheduler.h"
#include "src/flood/flood.h"
#include "tests/test_support.h"

namespace tsunami {
namespace {

// --- Parallel workload execution ---------------------------------------------

class ParallelRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(23);
    data_ = Dataset(3, {});
    const int64_t n = 25000;
    data_.Reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      Value x = rng.UniformValue(0, 50000);
      data_.AppendRow(
          {x, x + rng.UniformValue(-200, 200), rng.UniformValue(0, 1000)});
    }
    for (int i = 0; i < 80; ++i) {
      Query q;
      Value lo = rng.UniformValue(0, 45000);
      q.filters = {Predicate{0, lo, lo + 2000},
                   Predicate{2, 0, rng.UniformValue(100, 900)}};
      q.type = i % 2;
      workload_.push_back(q);
    }
  }

  Dataset data_;
  Workload workload_;
};

TEST_F(ParallelRunTest, IntraQueryParallelismMatchesSerialExecute) {
  TsunamiOptions options;
  options.cluster_queries = false;
  TsunamiIndex index(data_, workload_, options);
  // A query spanning many regions, plus the regular workload, must return
  // identical results and counters for every worker count (regions are
  // disjoint, so partial merges are exact).
  Workload probes = workload_;
  Query wide;
  wide.filters = {Predicate{0, 0, 50000}};
  probes.push_back(wide);
  Query everything;
  probes.push_back(everything);
  for (int threads : {0, 1, 2, 4}) {
    TaskScheduler scheduler(threads);
    ExecContext ctx(&scheduler);
    for (Query q : probes) {
      for (AggKind agg : {AggKind::kCount, AggKind::kSum, AggKind::kMin}) {
        q.agg = agg;
        q.agg_dim = 1;
        QueryResult serial = index.Execute(q);
        QueryResult parallel = index.ExecutePlan(index.Prepare(q), ctx);
        ASSERT_EQ(parallel.agg, serial.agg) << threads << " threads";
        ASSERT_EQ(parallel.matched, serial.matched);
        ASSERT_EQ(parallel.scanned, serial.scanned);
        ASSERT_EQ(parallel.cell_ranges, serial.cell_ranges);
      }
    }
  }
}

TEST_F(ParallelRunTest, NestedExecutePlanOnSchedulerWorkersMatchesSerial) {
  // Every probe runs as a chunk *on* the scheduler, and its ExecutePlan
  // submits its range-task chunks back to the same scheduler and waits:
  // the waiting workers must run those chunks themselves (help-while-
  // waiting) rather than deadlock, and the result must stay bit-identical
  // to serial Execute for every worker count, multi-aggregate extras
  // included.
  TsunamiOptions options;
  options.cluster_queries = false;
  TsunamiIndex index(data_, workload_, options);
  Workload probes = workload_;
  Query wide;
  wide.filters = {Predicate{0, 0, 50000}};
  probes.push_back(wide);
  for (Query& q : probes) {
    q.SetAggregates({{AggKind::kSum, 1}, {AggKind::kCount, 0}});
  }
  for (int threads : {1, 2, 4}) {
    TaskScheduler scheduler(threads);
    std::vector<QueryResult> nested(probes.size());
    TaskScheduler::JobRef job = scheduler.Submit(
        static_cast<int64_t>(probes.size()), [&](int64_t i, int) {
          ExecContext ctx(&scheduler);
          nested[i] = index.ExecutePlan(index.Prepare(probes[i]), ctx);
        });
    scheduler.Wait(job);
    ASSERT_FALSE(job->failed());
    for (size_t i = 0; i < probes.size(); ++i) {
      QueryResult serial = index.Execute(probes[i]);
      ASSERT_EQ(nested[i].agg, serial.agg) << threads << " workers";
      ASSERT_EQ(nested[i].matched, serial.matched);
      ASSERT_EQ(nested[i].scanned, serial.scanned);
      ASSERT_EQ(nested[i].cell_ranges, serial.cell_ranges);
      ASSERT_EQ(nested[i].extra, serial.extra);
    }
  }
}

TEST_F(ParallelRunTest, IntraQueryParallelismCoversDeltaChunks) {
  TsunamiOptions options;
  options.cluster_queries = false;
  Dataset all_rows;
  std::unique_ptr<ingest::IngestStore> store =
      StoreWithSealedAndOpenChunks(data_, workload_, options, &all_rows);
  FullScanIndex reference(all_rows);
  TaskScheduler scheduler(2);
  for (SimdTier tier : ScanTierSweep()) {
    SCOPED_TRACE(SimdTierName(tier));
    ExecContext ctx(&scheduler, ScanOptions{tier});
    for (const Query& q : workload_) {
      QueryResult serial = store->Execute(q);
      QueryResult parallel = store->ExecutePlan(store->Prepare(q), ctx);
      EXPECT_EQ(parallel.agg, serial.agg);
      EXPECT_EQ(parallel.matched, serial.matched);
      EXPECT_EQ(parallel.scanned, serial.scanned);
      EXPECT_EQ(parallel.cell_ranges, serial.cell_ranges);
      EXPECT_EQ(parallel.agg, reference.Execute(q).agg);
    }
  }
}

TEST_F(ParallelRunTest, ParallelResultsEqualSerial) {
  TsunamiOptions options;
  options.cluster_queries = false;
  TsunamiIndex index(data_, workload_, options);
  ExecContext serial_ctx;
  std::vector<QueryResult> serial = RunWorkload(index, workload_, serial_ctx);
  TaskScheduler scheduler(4);
  ExecContext parallel_ctx(&scheduler);
  std::vector<QueryResult> parallel =
      RunWorkload(index, workload_, parallel_ctx);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].agg, serial[i].agg);
    EXPECT_EQ(parallel[i].matched, serial[i].matched);
    EXPECT_EQ(parallel[i].scanned, serial[i].scanned);
    EXPECT_EQ(parallel[i].cell_ranges, serial[i].cell_ranges);
  }
}

TEST_F(ParallelRunTest, MeasureWorkloadCountersMatchResults) {
  FloodIndex index(data_, workload_, FloodOptions());
  ExecContext run_ctx, measure_ctx;
  std::vector<QueryResult> results = RunWorkload(index, workload_, run_ctx);
  WorkloadRunStats stats = MeasureWorkload(index, workload_, measure_ctx);
  int64_t scanned = 0, matched = 0;
  for (const QueryResult& r : results) {
    scanned += r.scanned;
    matched += r.matched;
  }
  EXPECT_EQ(stats.total_scanned, scanned);
  EXPECT_EQ(stats.total_matched, matched);
  EXPECT_GT(stats.avg_query_micros, 0.0);
}

// --- Parallel index construction ----------------------------------------------

TEST_F(ParallelRunTest, ParallelBuildProducesIdenticalIndex) {
  TsunamiOptions serial_options;
  serial_options.cluster_queries = false;
  serial_options.build_threads = 1;
  TsunamiIndex serial(data_, workload_, serial_options);

  TsunamiOptions parallel_options = serial_options;
  parallel_options.build_threads = 4;
  TsunamiIndex parallel(data_, workload_, parallel_options);

  // Structure must be identical, not merely equivalent.
  EXPECT_EQ(parallel.stats().num_regions, serial.stats().num_regions);
  EXPECT_EQ(parallel.stats().total_cells, serial.stats().total_cells);
  EXPECT_EQ(parallel.IndexSizeBytes(), serial.IndexSizeBytes());
  ASSERT_EQ(parallel.store().size(), serial.store().size());
  for (int d = 0; d < serial.store().dims(); ++d) {
    EXPECT_EQ(parallel.store().DecodeColumn(d), serial.store().DecodeColumn(d))
        << "clustered layout differs in dimension " << d;
  }
  // And answers + work done must match query by query.
  for (const Query& q : workload_) {
    QueryResult a = serial.Execute(q);
    QueryResult b = parallel.Execute(q);
    EXPECT_EQ(a.agg, b.agg);
    EXPECT_EQ(a.scanned, b.scanned);
    EXPECT_EQ(a.cell_ranges, b.cell_ranges);
  }
}

TEST_F(ParallelRunTest, FailedRegionBuildThrowsFromConstructor) {
#if !defined(TSUNAMI_FAULT_INJECTION)
  GTEST_SKIP() << "built without TSUNAMI_FAULT_INJECTION";
#else
  // Every scheduler chunk throws before it runs: a parallel build loses
  // regions, so the constructor must throw rather than hand back a
  // partially built index.
  TsunamiOptions options;
  options.cluster_queries = false;
  options.build_threads = 4;
  fault::FaultSpec throw_spec;
  throw_spec.probability = 1.0;
  fault::Arm("sched.task_throw", throw_spec);
  std::unique_ptr<TsunamiIndex> index;
  EXPECT_THROW(
      index = std::make_unique<TsunamiIndex>(data_, workload_, options),
      std::runtime_error);
  EXPECT_EQ(index, nullptr);
  EXPECT_GT(fault::FireCount("sched.task_throw"), 0);
  fault::DisarmAll();
  // Disarmed, the same build succeeds and answers like a full scan.
  TsunamiIndex built(data_, workload_, options);
  ColumnStore reference(data_);
  for (const Query& q : workload_) {
    EXPECT_EQ(built.Execute(q).agg, ExecuteFullScan(reference, q).agg);
  }
#endif
}

class BuildThreadSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(BuildThreadSweepTest, AnyThreadCountMatchesFullScan) {
  Rng rng(31);
  Dataset data(2, {});
  for (int64_t i = 0; i < 8000; ++i) {
    Value x = rng.UniformValue(0, 10000);
    data.AppendRow({x, rng.UniformValue(0, 10000)});
  }
  Workload workload;
  for (int i = 0; i < 30; ++i) {
    Query q;
    Value lo = rng.UniformValue(0, 9000);
    q.filters = {Predicate{i % 2, lo, lo + 500}};
    q.type = i % 2;
    workload.push_back(q);
  }
  TsunamiOptions options;
  options.cluster_queries = false;
  options.build_threads = GetParam();
  TsunamiIndex index(data, workload, options);
  ColumnStore reference(data);
  for (const Query& q : workload) {
    EXPECT_EQ(index.Execute(q).agg, ExecuteFullScan(reference, q).agg);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BuildThreadSweepTest,
                         ::testing::Values(1, 2, 3, 8));

}  // namespace
}  // namespace tsunami
