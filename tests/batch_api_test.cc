// Randomized equivalence suite for the batched, multi-aggregate query API:
//  * ExecuteBatch over shuffled batches is bit-identical to per-query
//    Execute for every index (all baselines, Flood, Tsunami, the secondary
//    indexes, and the access-path router), across thread counts and scan
//    modes;
//  * Prepare + ExecutePlan equals Execute;
//  * every index's workload counters stay pinned to recorded sums;
//  * one multi-aggregate pass equals N single-aggregate runs, down at the
//    scan-kernel level too;
//  * cancellation skips the remaining work and batch stats add up;
//  * the SQL engine's Prepare/RunBatch surface matches per-statement Run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/common/random.h"
#include "src/core/tsunami.h"
#include "src/exec/runner.h"
#include "src/exec/task_scheduler.h"
#include "src/flood/flood.h"
#include "src/query/engine.h"
#include "tests/test_support.h"

namespace tsunami {
namespace {

void ExpectBitIdentical(const QueryResult& got, const QueryResult& want,
                        const std::string& context) {
  EXPECT_EQ(got.agg, want.agg) << context;
  EXPECT_EQ(got.scanned, want.scanned) << context;
  EXPECT_EQ(got.matched, want.matched) << context;
  EXPECT_EQ(got.cell_ranges, want.cell_ranges) << context;
  ASSERT_EQ(got.extra.size(), want.extra.size()) << context;
  for (size_t i = 0; i < got.extra.size(); ++i) {
    EXPECT_EQ(got.extra[i], want.extra[i]) << context << " extra " << i;
  }
}

class BatchApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(71);
    const int64_t n = 16000;
    data_ = Dataset(3, {});
    data_.Reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      Value x = rng.UniformValue(0, 40000);
      data_.AppendRow(
          {x, x + rng.UniformValue(-300, 300), rng.UniformValue(0, 1000)});
    }
    // Mixed workload: varying filtered dimensions, aggregates, and
    // selectivities, including unfiltered and multi-aggregate queries.
    for (int i = 0; i < 48; ++i) {
      Query q;
      if (i % 5 != 4) {
        Value lo = rng.UniformValue(0, 36000);
        q.filters.push_back(Predicate{0, lo, lo + 3000});
      }
      if (i % 3 == 0) {
        q.filters.push_back(Predicate{2, 0, rng.UniformValue(100, 900)});
      }
      switch (i % 4) {
        case 0:
          q.SetAggregates({{AggKind::kCount, 0}});
          break;
        case 1:
          q.SetAggregates({{AggKind::kSum, 1}});
          break;
        case 2:
          q.SetAggregates({{AggKind::kMin, 2}});
          break;
        case 3:
          q.SetAggregates({{AggKind::kSum, 2},
                           {AggKind::kCount, 0},
                           {AggKind::kMin, 1},
                           {AggKind::kMax, 0}});
          break;
      }
      q.type = i % 2;
      workload_.push_back(q);
    }
  }

  IndexRoster BuildRoster() const {
    return BuildIndexRoster(data_, workload_);
  }

  Dataset data_;
  Workload workload_;
};

TEST_F(BatchApiTest, ExecuteBatchMatchesPerQueryExecuteShuffled) {
  IndexRoster roster = BuildRoster();
  Rng rng(72);
  for (const MultiDimIndex* index : roster.All()) {
    Workload shuffled = workload_;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.NextBelow(i)]);
    }
    for (int threads : {0, 1, 2, 4}) {
      TaskScheduler scheduler(threads);
      for (SimdTier tier : ScanTierSweep()) {
        SCOPED_TRACE(SimdTierName(tier));
        ExecContext ctx(&scheduler, ScanOptions{tier});
        std::vector<QueryResult> batch = RunWorkload(*index, shuffled, ctx);
        std::vector<QueryPlan> plans;
        for (const Query& q : shuffled) plans.push_back(index->Prepare(q));
        std::vector<QueryResult> replayed = index->ExecutePlans(plans, ctx);
        ASSERT_EQ(batch.size(), shuffled.size());
        ASSERT_EQ(replayed.size(), shuffled.size());
        for (size_t i = 0; i < shuffled.size(); ++i) {
          const std::string context = index->Name() + " query " +
                                      std::to_string(i) + " threads " +
                                      std::to_string(threads);
          QueryResult want = index->Execute(shuffled[i]);
          ExpectBitIdentical(batch[i], want, context);
          ExpectBitIdentical(replayed[i], want, context + " (plans)");
        }
        EXPECT_EQ(ctx.stats.queries,
                  2 * static_cast<int64_t>(shuffled.size()));
      }
    }
  }
}

TEST_F(BatchApiTest, PrepareThenExecutePlanMatchesExecute) {
  IndexRoster roster = BuildRoster();
  TaskScheduler scheduler(2);
  for (const MultiDimIndex* index : roster.All()) {
    ExecContext ctx(&scheduler);
    for (size_t i = 0; i < workload_.size(); ++i) {
      QueryPlan plan = index->Prepare(workload_[i]);
      ExpectBitIdentical(index->ExecutePlan(plan, ctx),
                         index->Execute(workload_[i]),
                         index->Name() + " plan " + std::to_string(i));
    }
  }
}

// Recorded workload totals for every index. The other tests here compare
// execution surfaces with each other; this one pins the numbers the
// reproduced figures report, so a change to what an index plans or counts
// cannot hide behind two surfaces agreeing. `agg` folds every aggregate of
// every query with wrapping adds.
TEST_F(BatchApiTest, CountersPinnedForEveryIndex) {
  struct Pinned {
    const char* name;
    int64_t agg, matched, scanned, cell_ranges;
  };
  const Pinned kPinned[] = {
      {"FullScan", 547222921, 156241, 768000, 48},
      {"SingleDim", 547222921, 156241, 183431, 48},
      {"ZOrder", 547222921, 156241, 520704, 137},
      {"Hyperoctree", 547222921, 156241, 407769, 220},
      {"KdTree", 547222921, 156241, 408091, 110},
      {"GridFile", 547222921, 156241, 736000, 48},
      {"RTree", 547222921, 156241, 314112, 86},
      {"UBTree", 547222921, 156241, 581376, 144},
      {"Qd-tree", 547222921, 156241, 238510, 102},
      {"ZM-index", 547222921, 156241, 523823, 48},
      {"Flood", 547222921, 156241, 131225, 88},
      {"Tsunami", 547222921, 156241, 130018, 342},
      {"SecondaryBTree", 547222921, 156241, 251546, 124535},
      {"SecondaryHermit", 547222921, 156241, 190629, 48},
      {"Router", 547222921, 156241, 183431, 48},
  };
  IndexRoster roster = BuildRoster();
  const std::vector<const MultiDimIndex*> all = roster.All();
  ASSERT_EQ(all.size(), std::size(kPinned));
  TaskScheduler scheduler(2);
  for (size_t x = 0; x < all.size(); ++x) {
    const MultiDimIndex& index = *all[x];
    const Pinned& want = kPinned[x];
    ASSERT_EQ(index.Name(), want.name);
    auto check = [&](const std::vector<QueryResult>& results,
                     const std::string& surface) {
      uint64_t agg = 0;
      int64_t matched = 0, scanned = 0, cell_ranges = 0;
      for (size_t i = 0; i < results.size(); ++i) {
        for (int a = 0; a < workload_[i].num_aggs(); ++a) {
          agg += static_cast<uint64_t>(results[i].agg_value(a));
        }
        matched += results[i].matched;
        scanned += results[i].scanned;
        cell_ranges += results[i].cell_ranges;
      }
      const std::string context = index.Name() + " " + surface;
      EXPECT_EQ(static_cast<int64_t>(agg), want.agg) << context;
      EXPECT_EQ(matched, want.matched) << context;
      EXPECT_EQ(scanned, want.scanned) << context;
      EXPECT_EQ(cell_ranges, want.cell_ranges) << context;
    };
    std::vector<QueryResult> serial;
    for (const Query& q : workload_) serial.push_back(index.Execute(q));
    check(serial, "Execute");
    for (SimdTier tier : ScanTierSweep()) {
      ExecContext ctx(&scheduler, ScanOptions{tier});
      check(RunWorkload(index, workload_, ctx),
            std::string("ExecuteBatch ") + SimdTierName(tier));
    }
  }
}

TEST_F(BatchApiTest, MultiAggregateMatchesSingleAggregateRuns) {
  IndexRoster roster = BuildRoster();
  std::vector<AggregateSpec> specs = {{AggKind::kSum, 1},
                                      {AggKind::kCount, 0},
                                      {AggKind::kMin, 0},
                                      {AggKind::kMax, 2},
                                      {AggKind::kAvg, 2}};
  Rng rng(73);
  for (const MultiDimIndex* index : roster.All()) {
    for (int trial = 0; trial < 6; ++trial) {
      Query multi;
      if (trial % 3 != 2) {
        Value lo = rng.UniformValue(0, 30000);
        multi.filters.push_back(Predicate{0, lo, lo + 5000});
      }
      if (trial % 2 == 0) {
        multi.filters.push_back(Predicate{2, 100, 800});
      }
      multi.SetAggregates(specs);
      QueryResult got = index->Execute(multi);
      for (size_t a = 0; a < specs.size(); ++a) {
        Query single = multi;
        single.SetAggregates({specs[a]});
        QueryResult want = index->Execute(single);
        EXPECT_EQ(got.agg_value(static_cast<int>(a)), want.agg)
            << index->Name() << " trial " << trial << " agg " << a;
        EXPECT_EQ(got.matched, want.matched) << index->Name();
      }
    }
  }
}

// Acceptance check at the kernel level: one scan pass produces
// SUM+COUNT+MIN+MAX simultaneously, equal to four single-aggregate passes,
// in every scan mode (scalar reference, branchless block kernel, SIMD).
TEST_F(BatchApiTest, KernelSinglePassComputesFourAggregates) {
  ColumnStore store(data_);
  Rng rng(74);
  std::vector<AggregateSpec> specs = {{AggKind::kSum, 1},
                                      {AggKind::kCount, 0},
                                      {AggKind::kMin, 2},
                                      {AggKind::kMax, 1}};
  for (int trial = 0; trial < 8; ++trial) {
    Query multi;
    Value lo = rng.UniformValue(0, 30000);
    multi.filters.push_back(Predicate{0, lo, lo + 8000});
    multi.SetAggregates(specs);
    int64_t begin = rng.NextBelow(store.size() / 2);
    int64_t end = begin + 1 + rng.NextBelow(store.size() - begin - 1);
    for (SimdTier tier : ScanTierSweep()) {
      for (bool exact : {false, true}) {
        QueryResult got = InitResult(multi);
        store.ScanRange(begin, end, multi, exact, &got, ScanOptions{tier});
        for (size_t a = 0; a < specs.size(); ++a) {
          Query single = multi;
          single.SetAggregates({specs[a]});
          QueryResult want = InitResult(single);
          store.ScanRange(begin, end, single, exact, &want,
                          ScanOptions{tier});
          EXPECT_EQ(got.agg_value(static_cast<int>(a)), want.agg)
              << SimdTierName(tier) << " exact " << exact
              << " agg " << a;
          EXPECT_EQ(got.matched, want.matched);
        }
      }
    }
  }
}

TEST_F(BatchApiTest, AggsListWithoutMirrorSyncStillCorrect) {
  // `aggs` is a public field; a caller may fill it directly and leave the
  // legacy `agg`/`agg_dim` mirror at its default. Init/merge/kernels must
  // all read kinds through agg_spec(0), not the mirror.
  Query q;
  q.aggs = {{AggKind::kMin, 1}, {AggKind::kSum, 2}};  // agg stays kCount.
  QueryResult init = InitResult(q);
  EXPECT_EQ(init.agg, kValueMax);  // MIN identity, not COUNT's 0.

  Query synced = q;
  synced.SetAggregates({{AggKind::kMin, 1}, {AggKind::kSum, 2}});
  FloodIndex index(data_, workload_);
  QueryResult want = index.Execute(synced);
  QueryResult got = index.Execute(q);
  EXPECT_EQ(got.agg, want.agg);
  ASSERT_EQ(got.extra.size(), want.extra.size());
  EXPECT_EQ(got.extra[0], want.extra[0]);

  // The parallel partial-merge path (MergeQueryResults over MIN) too: the
  // unfiltered 16k-row scan exceeds a 2-worker scheduler's inline
  // threshold.
  TaskScheduler scheduler(2);
  ExecContext ctx(&scheduler);
  QueryResult parallel = index.ExecutePlan(index.Prepare(q), ctx);
  EXPECT_EQ(parallel.agg, want.agg);
  EXPECT_EQ(parallel.extra[0], want.extra[0]);
}

TEST_F(BatchApiTest, CancelledContextSkipsRemainingQueries) {
  FullScanIndex index(data_);
  std::atomic<bool> cancel{true};  // Cancelled before the batch starts.
  ExecContext ctx;
  ctx.cancel = &cancel;
  std::vector<QueryResult> results = RunWorkload(index, workload_, ctx);
  ASSERT_EQ(results.size(), workload_.size());
  EXPECT_EQ(ctx.stats.queries, 0);
  for (size_t i = 0; i < results.size(); ++i) {
    ExpectBitIdentical(results[i], InitResult(workload_[i]), "cancelled");
  }
}

TEST_F(BatchApiTest, DeadlineStopsBatchAndSurvivesForking) {
  FullScanIndex index(data_);
  ExecContext ctx;
  ctx.deadline_seconds = 1e-9;  // Expires before the first query.
  std::vector<QueryResult> results = RunWorkload(index, workload_, ctx);
  ASSERT_EQ(results.size(), workload_.size());
  // The deadline must stop the batch early (executing every query would
  // mean ShouldStop never fired).
  EXPECT_LT(ctx.stats.queries, static_cast<int64_t>(workload_.size()));
  // Forked children inherit the *remaining* deadline — an expired parent
  // must hand out an immediately-expiring child, never 0 ("no deadline"),
  // so forwarding layers (router sub-batches, engine statements, scheduler
  // workers) cannot restart the clock.
  EXPECT_TRUE(ctx.ShouldStop());
  ExecContext child = ctx.Fork();
  EXPECT_GT(child.deadline_seconds, 0.0);
  EXPECT_LE(child.deadline_seconds, ctx.deadline_seconds);
  // A deadline-free parent forks deadline-free children.
  ExecContext free_ctx;
  EXPECT_EQ(free_ctx.Fork().deadline_seconds, 0.0);
}

TEST_F(BatchApiTest, BatchStatsMatchPerQueryCounters) {
  FloodIndex index(data_, workload_);
  TaskScheduler scheduler(3);
  ExecContext ctx(&scheduler);
  std::vector<QueryResult> results = RunWorkload(index, workload_, ctx);
  int64_t scanned = 0, matched = 0, ranges = 0;
  for (const QueryResult& r : results) {
    scanned += r.scanned;
    matched += r.matched;
    ranges += r.cell_ranges;
  }
  EXPECT_EQ(ctx.stats.queries, static_cast<int64_t>(workload_.size()));
  EXPECT_EQ(ctx.stats.scanned, scanned);
  EXPECT_EQ(ctx.stats.matched, matched);
  EXPECT_EQ(ctx.stats.cell_ranges, ranges);
  EXPECT_GE(ctx.stats.seconds, 0.0);
}

TEST_F(BatchApiTest, DeltaChunksCoveredByBatchPath) {
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
    std::vector<QueryResult> batch = RunWorkload(*store, workload_, ctx);
    for (size_t i = 0; i < workload_.size(); ++i) {
      ExpectBitIdentical(batch[i], store->Execute(workload_[i]),
                         "delta query " + std::to_string(i));
      EXPECT_EQ(batch[i].agg, reference.Execute(workload_[i]).agg);
    }
  }
}

TEST_F(BatchApiTest, EngineMultiAggregateAndRunBatch) {
  FullScanIndex index(data_);
  TableSchema schema;
  schema.table_name = "t";
  schema.columns = {"a", "b", "c"};
  QueryEngine engine(&index, schema);

  // Multi-aggregate SELECT list: one pass equals the four single runs.
  SqlResult multi = engine.Run(
      "SELECT SUM(b), COUNT(*), MIN(a), MAX(c) FROM t WHERE a BETWEEN 1000 "
      "AND 20000 AND c <= 700");
  ASSERT_TRUE(multi.ok) << multi.error;
  ASSERT_EQ(multi.values.size(), 4u);
  const char* singles[] = {"SELECT SUM(b)", "SELECT COUNT(*)",
                           "SELECT MIN(a)", "SELECT MAX(c)"};
  for (int a = 0; a < 4; ++a) {
    SqlResult one = engine.Run(
        std::string(singles[a]) +
        " FROM t WHERE a BETWEEN 1000 AND 20000 AND c <= 700");
    ASSERT_TRUE(one.ok) << one.error;
    EXPECT_DOUBLE_EQ(multi.values[a], one.value) << a;
  }
  EXPECT_DOUBLE_EQ(multi.value, multi.values[0]);

  // Prepared batch equals per-statement Run, including disjunctive and
  // unsatisfiable statements.
  std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM t WHERE a < 5000",
      "SELECT SUM(c), AVG(c) FROM t WHERE b > 10000",
      "SELECT COUNT(*) FROM t WHERE a < 1000 OR c > 900",
      "SELECT MIN(b) FROM t WHERE a > 20000 AND a < 1000",
  };
  std::vector<PreparedStatement> stmts;
  for (const std::string& sql : sqls) stmts.push_back(engine.Prepare(sql));
  TaskScheduler scheduler(2);
  ExecContext ctx(&scheduler);
  std::vector<SqlResult> batch = engine.RunBatch(stmts, ctx);
  ASSERT_EQ(batch.size(), sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    SqlResult want = engine.Run(sqls[i]);
    ASSERT_EQ(batch[i].ok, want.ok) << sqls[i];
    EXPECT_DOUBLE_EQ(batch[i].value, want.value) << sqls[i];
    EXPECT_EQ(batch[i].stats.matched, want.stats.matched) << sqls[i];
  }

  // Too many aggregates is a parse error, not a crash.
  PreparedStatement overflow = engine.Prepare(
      "SELECT COUNT(*), COUNT(*), COUNT(*), COUNT(*), COUNT(*), COUNT(*), "
      "COUNT(*), COUNT(*), COUNT(*) FROM t");
  EXPECT_FALSE(overflow.ok);
}

TEST_F(BatchApiTest, CalibrationAcceptsForcedTier) {
  // The calibration path must honor forced scan options (the ScanOptions
  // plumbing gap): a forced-tier calibration runs that kernel and still
  // produces sane positive weights.
  CostWeights simd = CalibrateCostWeights(ScanOptions{SimdTier::kAuto});
  CostWeights scalar =
      CalibrateCostWeights(ScanOptions{SimdTier::kReference});
  EXPECT_GT(simd.w0, 0.0);
  EXPECT_GT(simd.w1, 0.0);
  EXPECT_GT(scalar.w0, 0.0);
  EXPECT_GT(scalar.w1, 0.0);
  ExecContext ctx;
  ctx.scan = ScanOptions{SimdTier::kNone};
  CostWeights vec = CalibrateCostWeights(ctx);
  EXPECT_GT(vec.w1, 0.0);
}

}  // namespace
}  // namespace tsunami
