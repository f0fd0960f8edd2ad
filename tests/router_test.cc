// Tests for access-path routing (src/query/router.*): calibration must
// learn that needle lookups belong on the secondary index and wide range
// scans on the clustered index, routing must stay correct and repeat
// exactly, every index's plan must be priced by the cost model it routes
// by, and degenerate inputs must not crash.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/baselines/single_dim.h"
#include "src/common/random.h"
#include "src/core/cost_model.h"
#include "src/core/tsunami.h"
#include "src/query/engine.h"
#include "src/query/router.h"
#include "src/secondary/secondary_index.h"
#include "tests/test_support.h"

namespace tsunami {
namespace {

class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(2020);
    data_ = Dataset(3, {});
    constexpr int64_t kRows = 120000;
    data_.Reserve(kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      Value order = i;  // Densely increasing order key.
      Value date = i / 40 + rng.UniformValue(-3, 3);
      data_.AppendRow({date, order, rng.UniformValue(0, 999)});
    }
    // Two query types: point lookups on the order key (secondary-index
    // territory: ~1 row out of 120k) and wide date-range scans (clustered
    // territory).
    for (int i = 0; i < 60; ++i) {
      Query needle;
      Value k = rng.UniformValue(0, kRows - 1);
      needle.filters = {Predicate{1, k, k}};
      calibration_.push_back(needle);

      Query range;
      Value lo = rng.UniformValue(0, 2400);
      range.filters = {Predicate{0, lo, lo + 500}};
      calibration_.push_back(range);
    }
    clustered_ = std::make_unique<SingleDimIndex>(data_, calibration_,
                                                  /*forced_sort_dim=*/0);
    secondary_ = std::make_unique<SortedSecondaryIndex>(data_, /*host_dim=*/0,
                                                        /*key_dim=*/1);
  }

  Dataset data_;
  Workload calibration_;
  std::unique_ptr<SingleDimIndex> clustered_;
  std::unique_ptr<SortedSecondaryIndex> secondary_;
};

TEST_F(RouterTest, RoutesNeedlesToSecondaryAndRangesToClustered) {
  AccessPathRouter router({clustered_.get(), secondary_.get()}, data_,
                          calibration_);
  EXPECT_GE(router.num_types(), 2);

  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    Query needle;
    Value k = rng.UniformValue(0, data_.size() - 1);
    needle.filters = {Predicate{1, k, k}};
    EXPECT_EQ(router.Route(needle).Name(), secondary_->Name()) << i;

    Query range;
    Value lo = rng.UniformValue(0, 2400);
    range.filters = {Predicate{0, lo, lo + 500}};
    EXPECT_EQ(router.Route(range).Name(), clustered_->Name()) << i;
  }
}

TEST_F(RouterTest, ExecuteMatchesFullScan) {
  AccessPathRouter router({clustered_.get(), secondary_.get()}, data_,
                          calibration_);
  FullScanIndex full(data_);
  for (size_t i = 0; i < calibration_.size(); i += 9) {
    QueryResult got = router.Execute(calibration_[i]);
    QueryResult want = full.Execute(calibration_[i]);
    ASSERT_EQ(got.matched, want.matched) << i;
    ASSERT_EQ(got.agg, want.agg) << i;
  }
}

TEST_F(RouterTest, UnseenSignatureFallsBack) {
  AccessPathRouter router({clustered_.get(), secondary_.get()}, data_,
                          calibration_);
  // Dimension 2 never appears in calibration.
  Query unseen;
  unseen.filters = {Predicate{2, 100, 200}};
  const MultiDimIndex& choice = router.Route(unseen);
  FullScanIndex full(data_);
  EXPECT_EQ(choice.Execute(unseen).matched, full.Execute(unseen).matched);
}

TEST_F(RouterTest, DescribeListsTypesAndWinners) {
  AccessPathRouter router({clustered_.get(), secondary_.get()}, data_,
                          calibration_);
  std::string table = router.Describe();
  EXPECT_NE(table.find(clustered_->Name()), std::string::npos);
  EXPECT_NE(table.find(secondary_->Name()), std::string::npos);
  EXPECT_NE(table.find("fallback"), std::string::npos);
}

TEST_F(RouterTest, EqualInputsPrintEqualTables) {
  // Calibration prices plans instead of timing executions, so the learned
  // table, winners included, is a pure function of its inputs.
  AccessPathRouter first({clustered_.get(), secondary_.get()}, data_,
                         calibration_);
  AccessPathRouter second({clustered_.get(), secondary_.get()}, data_,
                          calibration_);
  EXPECT_EQ(first.Describe(), second.Describe());
}

TEST_F(RouterTest, SecondaryNeedlePlanPricesAtTheModel) {
  // The order key is dense and unique, so [k, k + K - 1] matches K rows:
  // K one-row probe ranges, each scanning its filtered dimensions (and,
  // for a SUM, its aggregate column).
  constexpr int64_t kMatches = 37;
  const CostWeights weights{/*w0=*/7.0, /*w1=*/3.0};
  for (int filtered : {1, 2}) {
    for (int agg_cols : {0, 1}) {
      Query q;
      q.filters = {Predicate{1, 5000, 5000 + kMatches - 1}};
      if (filtered == 2) q.filters.push_back(Predicate{2, 0, 499});
      if (agg_cols == 1) q.SetAggregates({AggregateSpec{AggKind::kSum, 2}});
      QueryPlan plan = secondary_->Prepare(q);
      ASSERT_EQ(static_cast<int64_t>(plan.tasks.size()), kMatches);
      EXPECT_EQ(plan.counters.cell_ranges, kMatches);
      EXPECT_DOUBLE_EQ(PredictPlanNanos(plan, weights),
                       weights.w0 * kMatches +
                           weights.w1 * kMatches * (filtered + agg_cols))
          << filtered << " filtered dims, " << agg_cols << " agg columns";
      // The probes answer exactly what a full scan does.
      FullScanIndex full(data_);
      QueryResult got = secondary_->Execute(q);
      QueryResult want = full.Execute(q);
      EXPECT_EQ(got.matched, want.matched);
      EXPECT_EQ(got.agg, want.agg);
    }
  }
}

TEST_F(RouterTest, EveryIndexPricesAMatchingQueryAboveZero) {
  // A plan that predicts 0 for a query with answers hides its scan from
  // the router and from admission control. Every index plans its scan as
  // RangeTasks, so none may.
  constexpr int64_t kRows = 20000;
  Dataset slice(data_.dims(), {});
  for (int64_t r = 0; r < kRows; ++r) {
    slice.AppendRow({data_.at(r, 0), data_.at(r, 1), data_.at(r, 2)});
  }
  // Needles on dimension 1 (SecondaryHermit's key) and date ranges inside
  // the slice; a third also filter dimension 2 (SecondaryBTree's key), so
  // both secondary indexes take their key paths too.
  Rng rng(7);
  Workload workload;
  for (int i = 0; i < 30; ++i) {
    Query q;
    if (i % 2 == 0) {
      Value k = rng.UniformValue(0, kRows - 1);
      q.filters = {Predicate{1, k, k + i}};
    } else {
      Value lo = rng.UniformValue(0, kRows / 40 - 100);
      q.filters = {Predicate{0, lo, lo + 50}};
    }
    if (i % 3 == 0) q.filters.push_back(Predicate{2, 0, 899});
    workload.push_back(q);
  }
  IndexRoster roster = BuildIndexRoster(slice, workload);
  FullScanIndex full(slice);
  int matching = 0;
  for (const Query& q : workload) {
    if (full.Execute(q).matched == 0) continue;
    ++matching;
    for (const MultiDimIndex* index : roster.All()) {
      EXPECT_GT(PredictPlanNanos(index->Prepare(q), CostWeights{}), 0.0)
          << index->Name();
    }
  }
  EXPECT_GE(matching, 25);
}

TEST_F(RouterTest, EmptyCalibrationRoutesToFirstIndex) {
  AccessPathRouter router({clustered_.get(), secondary_.get()}, data_, {});
  Query q;
  q.filters = {Predicate{0, 0, 100}};
  EXPECT_EQ(router.Route(q).Name(), clustered_->Name());
  EXPECT_EQ(router.num_types(), 0);
}

TEST_F(RouterTest, SingleIndexAlwaysWins) {
  AccessPathRouter router({clustered_.get()}, data_, calibration_);
  for (const Query& q : calibration_) {
    EXPECT_EQ(&router.Route(q), clustered_.get());
  }
}

TEST_F(RouterTest, ComposesAsMultiDimIndexBehindSqlEngine) {
  AccessPathRouter router({clustered_.get(), secondary_.get()}, data_,
                          calibration_);
  TableSchema schema;
  schema.table_name = "orders";
  schema.columns = {"order_date", "order_id", "amount"};
  QueryEngine engine(&router, schema);
  SqlResult point =
      engine.Run("SELECT COUNT(*) FROM orders WHERE order_id = 777");
  ASSERT_TRUE(point.ok) << point.error;
  EXPECT_EQ(point.value, 1);
  // Disjunctive statements route each disjoint box independently.
  SqlResult either = engine.Run(
      "SELECT COUNT(*) FROM orders WHERE order_id = 777 OR order_id = 778");
  ASSERT_TRUE(either.ok) << either.error;
  EXPECT_EQ(either.value, 2);
  EXPECT_GT(router.IndexSizeBytes(), 0);
}

}  // namespace
}  // namespace tsunami
