// Helpers shared by the test suites: the scan-tier sweep, a scheduler jam
// that keeps submitted work queued on purpose, an ingesting store whose
// delta spans both chunk forms (sealed + open) for the executor-epilogue
// tests, and a wrapper that records the scan options an epilogue received.
#ifndef TSUNAMI_TESTS_TEST_SUPPORT_H_
#define TSUNAMI_TESTS_TEST_SUPPORT_H_

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/index.h"
#include "src/common/types.h"
#include "src/exec/task_scheduler.h"
#include "src/ingest/ingest_store.h"
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
  QueryResult Execute(const Query& query) const override {
    return inner_->Execute(query);
  }
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
