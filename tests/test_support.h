// Helpers shared by the test suites: a scheduler jam that keeps submitted
// work queued on purpose, and an ingesting store whose delta spans both
// chunk forms (sealed + open) for the executor-epilogue tests.
#ifndef TSUNAMI_TESTS_TEST_SUPPORT_H_
#define TSUNAMI_TESTS_TEST_SUPPORT_H_

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "src/common/types.h"
#include "src/exec/task_scheduler.h"
#include "src/ingest/ingest_store.h"

namespace tsunami {

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

}  // namespace tsunami

#endif  // TSUNAMI_TESTS_TEST_SUPPORT_H_
