// Helpers shared by the test suites: the scan-tier sweep, every index of
// the library built over one table, a grid's plan-then-scan execution, a
// scheduler jam that keeps submitted work queued on purpose, an ingesting store whose delta spans both chunk forms
// (sealed + open) for the executor-epilogue tests, and a wrapper that
// records the scan options an epilogue received.
#ifndef TSUNAMI_TESTS_TEST_SUPPORT_H_
#define TSUNAMI_TESTS_TEST_SUPPORT_H_

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/baselines/grid_file.h"
#include "src/baselines/kdtree.h"
#include "src/baselines/octree.h"
#include "src/baselines/qd_tree.h"
#include "src/baselines/rtree.h"
#include "src/baselines/single_dim.h"
#include "src/baselines/ub_tree.h"
#include "src/baselines/zm_index.h"
#include "src/baselines/zorder.h"
#include "src/common/index.h"
#include "src/common/types.h"
#include "src/core/augmented_grid.h"
#include "src/core/tsunami.h"
#include "src/exec/task_scheduler.h"
#include "src/flood/flood.h"
#include "src/ingest/ingest_store.h"
#include "src/query/router.h"
#include "src/secondary/secondary_index.h"
#include "src/storage/simd_dispatch.h"

namespace tsunami {

/// The scan tiers every tier sweep covers: the default (kAuto), the
/// row-at-a-time reference, the portable block kernel, and each SIMD tier
/// this build and CPU support. All must produce bit-identical results.
inline std::vector<SimdTier> ScanTierSweep() {
  std::vector<SimdTier> tiers = {SimdTier::kAuto, SimdTier::kReference,
                                 SimdTier::kNone};
  for (SimdTier tier :
       {SimdTier::kNeon, SimdTier::kAvx2, SimdTier::kAvx512}) {
    if (SimdTierSupported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

/// Every index of the library over one 3-dimensional table: the ten
/// baselines, Flood, Tsunami, both secondary indexes (host dimension 0;
/// keys 2 and 1), and a router over FullScan, SingleDim and SecondaryBTree
/// calibrated on `workload`.
struct IndexRoster {
  std::vector<std::unique_ptr<MultiDimIndex>> indexes;
  std::unique_ptr<AccessPathRouter> router;

  std::vector<const MultiDimIndex*> All() const {
    std::vector<const MultiDimIndex*> all;
    for (const auto& index : indexes) all.push_back(index.get());
    if (router != nullptr) all.push_back(router.get());
    return all;
  }
};

inline IndexRoster BuildIndexRoster(const Dataset& data,
                                    const Workload& workload) {
  IndexRoster roster;
  auto& xs = roster.indexes;
  xs.push_back(std::make_unique<FullScanIndex>(data));
  xs.push_back(std::make_unique<SingleDimIndex>(data, workload));
  xs.push_back(std::make_unique<ZOrderIndex>(data, ZOrderIndex::Options()));
  xs.push_back(std::make_unique<HyperOctree>(data, HyperOctree::Options()));
  xs.push_back(std::make_unique<KdTree>(data, workload));
  xs.push_back(
      std::make_unique<GridFileIndex>(data, GridFileIndex::Options()));
  xs.push_back(std::make_unique<RTreeIndex>(data, RTreeIndex::Options()));
  xs.push_back(std::make_unique<UbTreeIndex>(data, UbTreeIndex::Options()));
  xs.push_back(std::make_unique<QdTreeIndex>(data, workload));
  xs.push_back(std::make_unique<ZmIndex>(data, ZmIndex::Options()));
  xs.push_back(std::make_unique<FloodIndex>(data, workload));
  TsunamiOptions options;
  options.cluster_queries = false;
  xs.push_back(std::make_unique<TsunamiIndex>(data, workload, options));
  xs.push_back(std::make_unique<SortedSecondaryIndex>(data, /*host_dim=*/0,
                                                      /*key_dim=*/2));
  xs.push_back(std::make_unique<CorrelationSecondaryIndex>(
      data, /*host_dim=*/0, /*key_dim=*/1));
  roster.router = std::make_unique<AccessPathRouter>(
      std::vector<const MultiDimIndex*>{xs[0].get(), xs[1].get(),
                                        xs[12].get()},
      data, workload);
  return roster;
}

/// Runs `query` over `grid` the way its owning index does: PlanRanges, then
/// one batched scan of the planned ranges against `store` (the store the
/// grid is attached to), accumulating into `out`.
inline void ScanGrid(const AugmentedGrid& grid, const ColumnStore& store,
                     const Query& query, QueryResult* out) {
  std::vector<RangeTask> tasks;
  grid.PlanRanges(query, &tasks, out);
  store.ScanRanges(tasks, query, out);
}

/// Occupies every worker of `scheduler` until Release() — the deterministic
/// way to keep submitted queries *queued* while a test inspects admission.
class WorkerJam {
 public:
  WorkerJam(TaskScheduler* scheduler, int workers) : scheduler_(scheduler) {
    job_ = scheduler_->Submit(workers, [this](int64_t, int) {
      started_.fetch_add(1, std::memory_order_relaxed);
      while (!release_.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    });
    while (started_.load(std::memory_order_relaxed) < workers) {
      std::this_thread::yield();
    }
  }
  ~WorkerJam() { Release(); }
  void Release() {
    if (released_) return;
    released_ = true;
    release_.store(true, std::memory_order_release);
    scheduler_->Wait(job_);
  }

 private:
  TaskScheduler* scheduler_;
  TaskScheduler::JobRef job_;
  std::atomic<int> started_{0};
  std::atomic<bool> release_{false};
  bool released_ = false;
};

/// An IngestStore over `data` whose delta holds rows in a sealed
/// (block-encoded) chunk *and* in the open tail chunk, so every executor
/// must add both chunk forms after its planned range scans. The inserted
/// rows are copies of base rows (they land inside the workload's ranges);
/// `all_rows` (when non-null) receives base + inserted rows for a
/// full-scan reference. No background compaction: nothing folds them away.
inline std::unique_ptr<ingest::IngestStore> StoreWithSealedAndOpenChunks(
    const Dataset& data, const Workload& workload,
    const TsunamiOptions& index_options, Dataset* all_rows = nullptr) {
  ingest::IngestOptions options;
  options.index = index_options;
  options.background_compaction = false;
  options.chunk_capacity = 2 * kScanBlockRows;
  options.encode_min_blocks = 2;
  options.compact_min_chunks = 1000;  // Seal, never fold.
  auto store =
      std::make_unique<ingest::IngestStore>(data, workload, options);
  if (all_rows != nullptr) *all_rows = data;
  std::vector<Value> row(data.dims());
  for (int64_t i = 0; i < options.chunk_capacity + 37; ++i) {
    for (int d = 0; d < data.dims(); ++d) {
      row[d] = data.at(i * 7 % data.size(), d);
    }
    store->Insert(row);
    if (all_rows != nullptr) all_rows->AppendRow(row);
  }
  store->BackgroundTick();  // Seals the full, retired first chunk.
  const auto snap = store->CurrentSnapshot();
  EXPECT_EQ(snap->chunks().size(), 2u);
  EXPECT_TRUE(snap->chunks().front()->sealed());
  EXPECT_EQ(snap->chunks().back()->committed(), 37);
  return store;
}

/// Forwards every query to `inner` and records the scan tier its plan
/// epilogue (FinishPlan) last received — the witness that an executor
/// handed its caller's scan options on to the delta-chunk scans. It is its
/// own PlanTarget, so executors scan inner's current store (callers must
/// not publish between Prepare and execution) and call this FinishPlan.
class EpilogueTierSpy : public MultiDimIndex {
 public:
  explicit EpilogueTierSpy(const MultiDimIndex* inner) : inner_(inner) {}

  std::string Name() const override { return inner_->Name(); }
  QueryPlan Prepare(const Query& query) const override {
    return inner_->Prepare(query);
  }
  void FinishPlan(const QueryPlan& plan, QueryResult* result,
                  const ScanOptions& options) const override {
    last_tier_.store(options.tier, std::memory_order_relaxed);
    inner_->PlanTarget(plan).FinishPlan(plan, result, options);
  }
  int64_t IndexSizeBytes() const override { return inner_->IndexSizeBytes(); }
  const ColumnStore& store() const override { return inner_->store(); }

  SimdTier last_tier() const {
    return last_tier_.load(std::memory_order_relaxed);
  }

 private:
  const MultiDimIndex* inner_;
  mutable std::atomic<SimdTier> last_tier_{SimdTier::kAuto};
};

}  // namespace tsunami

#endif  // TSUNAMI_TESTS_TEST_SUPPORT_H_
