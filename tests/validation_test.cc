// Cross-cutting validation tests: the analytic cost model's features must
// track the counters real query execution reports (§5.3.1; the paper's
// Fig. 12b puts the model's average error at 15%), the Earth Mover's
// Distance must behave like a metric (§4.2.1 relies on it as a statistical
// distance), and Skeleton::Validate must agree with a reference checker on
// random skeletons (§5.2's structural restrictions).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "src/common/emd.h"
#include "src/common/random.h"
#include "src/common/types.h"
#include "src/core/augmented_grid.h"
#include "src/core/cost_model.h"
#include "src/core/optimizer.h"
#include "src/core/skeleton.h"
#include "src/storage/column_store.h"
#include "tests/test_support.h"

namespace tsunami {
namespace {

// --- Cost model vs execution counters -----------------------------------------

class CostModelCounterTest : public ::testing::TestWithParam<int> {};

// Builds a real Augmented Grid from an optimizer plan and checks that the
// cost model's two features — cell ranges and scanned points — match the
// counters execution reports, in aggregate over a workload.
TEST_P(CostModelCounterTest, FeaturesTrackExecutionCounters) {
  const uint64_t seed = 400 + GetParam();
  Rng rng(seed);
  const int dims = 3;
  const int64_t n = 20000;
  Dataset data(dims, {});
  for (int64_t i = 0; i < n; ++i) {
    Value x = rng.UniformValue(0, 99999);
    // One correlated dimension so non-trivial skeletons appear too.
    data.AppendRow({x, x / 2 + rng.UniformValue(-300, 300),
                    rng.UniformValue(0, 9999)});
  }
  Workload workload;
  for (int i = 0; i < 32; ++i) {
    Query q;
    Value lo0 = rng.UniformValue(0, 90000);
    Value lo2 = rng.UniformValue(0, 9000);
    q.filters = {Predicate{0, lo0, lo0 + 8000}, Predicate{2, lo2, lo2 + 800}};
    workload.push_back(q);
  }

  std::vector<uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  AgdOptions agd;
  agd.max_sample_points = 8192;
  agd.max_sample_queries = 32;
  agd.seed = seed;
  GridPlan plan = OptimizeGrid(data, rows, workload, OptimizeMethod::kAgd,
                               agd);

  AugmentedGrid::BuildOptions build_options;
  build_options.sort_dim = plan.sort_dim;
  AugmentedGrid grid;
  grid.Build(data, &rows, plan.skeleton, plan.partitions, build_options);
  ColumnStore store(data, rows);
  grid.Attach(&store, 0);

  // A full-sample evaluator: feature estimates, not sampling noise.
  GridCostEvaluator evaluator(data, rows, workload,
                              /*max_sample_points=*/20000,
                              /*max_sample_queries=*/32, seed);
  // Weights (1, 0) predict pure range counts; (0, 1) predicts pure
  // scanned-points * filtered-dims cost.
  CostWeights ranges_only{1.0, 0.0};
  CostWeights scan_only{0.0, 1.0};

  double predicted_ranges = 0, actual_ranges = 0;
  double predicted_scan = 0, actual_scan = 0;
  for (const Query& q : workload) {
    predicted_ranges += evaluator.PredictQueryNanos(
        plan.skeleton, plan.partitions, ranges_only, q, plan.sort_dim);
    predicted_scan += evaluator.PredictQueryNanos(
        plan.skeleton, plan.partitions, scan_only, q, plan.sort_dim);
    QueryResult r = InitResult(q);
    ScanGrid(grid, store, q, &r);
    actual_ranges += static_cast<double>(r.cell_ranges);
    actual_scan += static_cast<double>(r.scanned) *
                   static_cast<double>(q.filters.size());
  }
  ASSERT_GT(actual_ranges, 0);
  ASSERT_GT(actual_scan, 0);
  // Aggregate relative error. The paper reports 15% average error for the
  // full model; individual features get headroom for estimation effects
  // (binary-search refinement, partition rounding).
  EXPECT_LT(std::abs(predicted_ranges - actual_ranges) / actual_ranges, 0.5)
      << "predicted " << predicted_ranges << " actual " << actual_ranges;
  EXPECT_LT(std::abs(predicted_scan - actual_scan) / actual_scan, 0.5)
      << "predicted " << predicted_scan << " actual " << actual_scan;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CostModelCounterTest, ::testing::Range(0, 3));

// --- EMD metric properties ----------------------------------------------------

std::vector<double> RandomMass(Rng* rng, int bins, double total) {
  std::vector<double> mass(bins);
  double sum = 0.0;
  for (double& m : mass) {
    m = rng->NextDouble();
    sum += m;
  }
  for (double& m : mass) m *= total / sum;
  return mass;
}

class EmdMetricTest : public ::testing::TestWithParam<int> {};

TEST_P(EmdMetricTest, IdentitySymmetryTriangle) {
  Rng rng(500 + GetParam());
  for (int iter = 0; iter < 100; ++iter) {
    int bins = 2 + static_cast<int>(rng.NextBelow(62));
    std::vector<double> p = RandomMass(&rng, bins, 10.0);
    std::vector<double> q = RandomMass(&rng, bins, 10.0);
    std::vector<double> r = RandomMass(&rng, bins, 10.0);
    EXPECT_NEAR(Emd(p, p), 0.0, 1e-9);
    EXPECT_NEAR(Emd(p, q), Emd(q, p), 1e-9);
    EXPECT_LE(Emd(p, r), Emd(p, q) + Emd(q, r) + 1e-9);
    EXPECT_GE(Emd(p, q), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmdMetricTest, ::testing::Range(0, 4));

TEST(EmdTest, MovingMassFurtherCostsMore) {
  // One unit moved k bins costs k/n: EMD grows linearly with distance.
  const int n = 10;
  std::vector<double> src(n, 0.0);
  src[0] = 1.0;
  double prev = 0.0;
  for (int k = 1; k < n; ++k) {
    std::vector<double> dst(n, 0.0);
    dst[k] = 1.0;
    double d = Emd(src, dst);
    EXPECT_NEAR(d, static_cast<double>(k) / n, 1e-9);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(EmdTest, SkewBoundsAndExtremes) {
  // Uniform mass has zero skew; a point mass has maximal skew; skew is
  // bounded by total mass.
  std::vector<double> uniform(16, 2.0);
  EXPECT_NEAR(SkewOfMass(uniform), 0.0, 1e-9);

  std::vector<double> point(16, 0.0);
  point[0] = 32.0;
  double point_skew = SkewOfMass(point);
  EXPECT_GT(point_skew, 0.0);
  EXPECT_LE(point_skew, 32.0);

  Rng rng(501);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<double> mass = RandomMass(&rng, 32, 7.0);
    double skew = SkewOfMass(mass);
    EXPECT_GE(skew, -1e-9);
    EXPECT_LE(skew, 7.0);
    EXPECT_LE(skew, point_skew / 32.0 * 7.0 + 1e-9)
        << "point mass maximizes skew";
  }
}

// --- Skeleton validation sweep -------------------------------------------------

// Reference implementation of §5.2's restrictions, written independently
// of Skeleton::Validate.
bool ReferenceValid(const Skeleton& s) {
  int d = s.num_dims();
  int in_grid = 0;
  for (int i = 0; i < d; ++i) {
    const DimSpec& spec = s.dims[i];
    if (spec.strategy == PartitionStrategy::kIndependent) {
      if (spec.other != -1) return false;
      ++in_grid;
      continue;
    }
    if (spec.other < 0 || spec.other >= d || spec.other == i) return false;
    const DimSpec& other = s.dims[spec.other];
    if (spec.strategy == PartitionStrategy::kMapped) {
      // Target must not be mapped itself.
      if (other.strategy == PartitionStrategy::kMapped) return false;
    } else {  // kConditional
      // Base must be independent (not mapped, not conditional).
      if (other.strategy != PartitionStrategy::kIndependent) return false;
      ++in_grid;
    }
  }
  // A mapped dimension must not be the base of a conditional dimension.
  for (int i = 0; i < d; ++i) {
    if (s.dims[i].strategy != PartitionStrategy::kConditional) continue;
    if (s.dims[s.dims[i].other].strategy == PartitionStrategy::kMapped) {
      return false;
    }
  }
  return in_grid >= 1;
}

class SkeletonSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(SkeletonSweepTest, ValidateAgreesWithReference) {
  const int d = 2 + GetParam();
  // Exhaustive over all strategy/other assignments for small d.
  std::vector<Skeleton> all;
  int64_t combos = 1;
  for (int i = 0; i < d; ++i) combos *= 1 + 2 * d;  // indep | (map|cond) x d
  for (int64_t code = 0; code < combos; ++code) {
    Skeleton s;
    s.dims.resize(d);
    int64_t c = code;
    for (int i = 0; i < d; ++i) {
      int choice = static_cast<int>(c % (1 + 2 * d));
      c /= 1 + 2 * d;
      if (choice == 0) {
        s.dims[i] = DimSpec{PartitionStrategy::kIndependent, -1};
      } else if (choice <= d) {
        s.dims[i] = DimSpec{PartitionStrategy::kMapped, choice - 1};
      } else {
        s.dims[i] = DimSpec{PartitionStrategy::kConditional, choice - d - 1};
      }
    }
    all.push_back(std::move(s));
  }
  int valid_count = 0;
  for (const Skeleton& s : all) {
    bool got = s.Validate();
    bool want = ReferenceValid(s);
    ASSERT_EQ(got, want) << s.ToString();
    valid_count += got;
  }
  // Sanity: the space contains both valid and invalid skeletons.
  EXPECT_GT(valid_count, 0);
  EXPECT_LT(valid_count, static_cast<int>(all.size()));
}

INSTANTIATE_TEST_SUITE_P(Dims, SkeletonSweepTest, ::testing::Range(0, 2));

}  // namespace
}  // namespace tsunami
