// Tests for the work-stealing task scheduler: every chunk runs exactly
// once (any thread count, concurrent submitters), Wait/Finished semantics,
// inline determinism, several workers running at once, priority jumping
// the queue, stealing actually firing on a skewed job mix, nested jobs
// completing through help-while-waiting, and the completion callback
// (exactly once, after finished(), on every kind of job; its captures
// released).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/fault_injection.h"
#include "src/exec/task_scheduler.h"

namespace tsunami {
namespace {

/// Spins until `pred` holds or `seconds` pass; returns the final `pred`.
/// The completion callback runs after finished() is published, so a test
/// that has returned from Wait() may still have to wait for it.
template <typename Pred>
bool EventuallyTrue(Pred pred, double seconds = 30.0) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(seconds);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return pred();
    std::this_thread::yield();
  }
  return true;
}

TEST(TaskSchedulerTest, InlineSchedulerRunsChunksInOrderOnCaller) {
  TaskScheduler scheduler(0);
  EXPECT_EQ(scheduler.num_threads(), 0);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<int64_t> order;
  TaskScheduler::JobRef job = scheduler.Submit(8, [&](int64_t c, int worker) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(worker, 0);
    order.push_back(c);
  });
  // Inline submission completes before returning.
  EXPECT_TRUE(TaskScheduler::Finished(job));
  ASSERT_EQ(order.size(), 8u);
  for (int64_t c = 0; c < 8; ++c) EXPECT_EQ(order[c], c);
  scheduler.Wait(job);  // Must not hang on a finished job.
}

TEST(TaskSchedulerTest, EveryChunkRunsExactlyOnce) {
  TaskScheduler scheduler(4);
  const int kJobs = 16;
  const int64_t kChunks = 257;  // Not a multiple of the worker count.
  std::vector<std::vector<std::atomic<int>>> hits(kJobs);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kChunks);
  }
  std::vector<TaskScheduler::JobRef> jobs;
  for (int j = 0; j < kJobs; ++j) {
    jobs.push_back(scheduler.Submit(kChunks, [&hits, j](int64_t c, int) {
      hits[j][c].fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (const auto& job : jobs) scheduler.Wait(job);
  for (int j = 0; j < kJobs; ++j) {
    for (int64_t c = 0; c < kChunks; ++c) {
      EXPECT_EQ(hits[j][c].load(), 1) << "job " << j << " chunk " << c;
    }
  }
  TaskScheduler::Stats stats = scheduler.stats();
  EXPECT_EQ(stats.jobs, kJobs);
  EXPECT_EQ(stats.chunks, kJobs * kChunks);
  EXPECT_EQ(scheduler.queue_depth(), 0);
}

TEST(TaskSchedulerTest, ConcurrentSubmittersAllComplete) {
  TaskScheduler scheduler(3);
  const int kClients = 6;
  const int kJobsPerClient = 20;
  std::atomic<int64_t> total{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      for (int j = 0; j < kJobsPerClient; ++j) {
        TaskScheduler::JobRef job = scheduler.Submit(
            5, [&](int64_t, int) {
              total.fetch_add(1, std::memory_order_relaxed);
            });
        scheduler.Wait(job);
        EXPECT_TRUE(TaskScheduler::Finished(job));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(total.load(), kClients * kJobsPerClient * 5);
}

TEST(TaskSchedulerTest, EmptyJobIsImmediatelyFinished) {
  TaskScheduler scheduler(2);
  TaskScheduler::JobRef job = scheduler.Submit(0, [](int64_t, int) {
    FAIL() << "no chunks should run";
  });
  EXPECT_TRUE(TaskScheduler::Finished(job));
  scheduler.Wait(job);
}

TEST(TaskSchedulerTest, SingleChunkJobRunsItsOneChunk) {
  TaskScheduler scheduler(2);
  std::atomic<int> calls{0};
  TaskScheduler::JobRef job = scheduler.Submit(1, [&](int64_t c, int) {
    EXPECT_EQ(c, 0);
    calls.fetch_add(1, std::memory_order_relaxed);
  });
  scheduler.Wait(job);
  EXPECT_EQ(calls.load(), 1);
}

// Two chunks on a two-worker scheduler each wait until both are running:
// only two distinct worker threads can get both past the rendezvous. The
// wait is bounded, so a scheduler that runs chunks one at a time fails
// instead of hanging.
TEST(TaskSchedulerTest, UsesSeveralWorkersAtOnce) {
  TaskScheduler scheduler(2);
  std::atomic<int> arrived{0};
  std::mutex mu;
  std::vector<std::thread::id> seen;
  TaskScheduler::JobRef job = scheduler.Submit(2, [&](int64_t, int) {
    {
      std::lock_guard<std::mutex> lock(mu);
      seen.push_back(std::this_thread::get_id());
    }
    arrived.fetch_add(1, std::memory_order_acq_rel);
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (arrived.load(std::memory_order_acquire) < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  scheduler.Wait(job);
  EXPECT_EQ(arrived.load(), 2);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_NE(seen[0], seen[1]);
}

// One chunk blocks its worker while the rest of the job's chunks sit in
// that worker's deque: the other workers must drain their own deques and
// then steal the blocked worker's queued chunks, so the job finishes long
// before the blocker releases — and the steal counter moves.
TEST(TaskSchedulerTest, IdleWorkersStealFromBusyWorkersDeque) {
  TaskScheduler scheduler(2);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> fast_done{0};
  const int64_t kChunks = 64;
  TaskScheduler::JobRef job =
      scheduler.Submit(kChunks, [&](int64_t c, int) {
        if (c == 0) {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return release; });
          return;
        }
        fast_done.fetch_add(1, std::memory_order_relaxed);
      });
  // All non-blocking chunks finish while chunk 0 still holds its worker —
  // half of them lived in the blocked worker's deque and must be stolen.
  while (fast_done.load(std::memory_order_relaxed) < kChunks - 1) {
    std::this_thread::yield();
  }
  EXPECT_FALSE(TaskScheduler::Finished(job));
  EXPECT_GE(scheduler.stats().steals, 1);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Wait(job);
  EXPECT_TRUE(TaskScheduler::Finished(job));
}

// With a single worker pinned by a blocker, later high-priority chunks
// must run before earlier normal-priority backlog.
TEST(TaskSchedulerTest, PriorityChunksJumpTheQueue) {
  TaskScheduler scheduler(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> started{false};
  TaskScheduler::JobRef blocker =
      scheduler.Submit(1, [&](int64_t, int) {
        started.store(true, std::memory_order_release);
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
      });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  // Worker is pinned: everything below queues in its deque.
  std::mutex order_mu;
  std::vector<int> order;
  auto record = [&](int tag) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(tag);
  };
  TaskScheduler::JobRef low = scheduler.Submit(
      3, [&](int64_t, int) { record(0); }, /*priority=*/0);
  TaskScheduler::JobRef high = scheduler.Submit(
      3, [&](int64_t, int) { record(1); }, /*priority=*/1);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Wait(low);
  scheduler.Wait(high);
  scheduler.Wait(blocker);
  ASSERT_EQ(order.size(), 6u);
  // All high-priority chunks ran before every normal-priority one.
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(order[i], 1) << i;
  for (size_t i = 3; i < 6; ++i) EXPECT_EQ(order[i], 0) << i;
}

// A chunk that throws must not take the worker down or hang Wait: the job
// completes, is marked failed, and the failure counter moves. (No fault
// injection needed — the chunk function throws directly.)
TEST(TaskSchedulerTest, ThrowingChunkFailsJobWithoutHangingWait) {
  TaskScheduler scheduler(2);
  std::atomic<int64_t> ran{0};
  TaskScheduler::JobRef job = scheduler.Submit(16, [&](int64_t c, int) {
    ran.fetch_add(1, std::memory_order_relaxed);
    if (c == 5 || c == 11) throw std::runtime_error("injected chunk fault");
  });
  scheduler.Wait(job);  // Must return despite the throws.
  EXPECT_TRUE(TaskScheduler::Finished(job));
  EXPECT_TRUE(job->failed());
  EXPECT_EQ(ran.load(), 16);  // Sibling chunks still ran.
  EXPECT_GE(scheduler.stats().task_failures, 2);

  // A healthy job on the same scheduler afterwards is unaffected.
  std::atomic<int64_t> healthy{0};
  TaskScheduler::JobRef ok = scheduler.Submit(8, [&](int64_t, int) {
    healthy.fetch_add(1, std::memory_order_relaxed);
  });
  scheduler.Wait(ok);
  EXPECT_FALSE(ok->failed());
  EXPECT_EQ(healthy.load(), 8);
}

// Boost() moves a job's still-queued chunks to the deque front: with one
// pinned worker, a later-submitted boosted job runs entirely before the
// earlier backlog, in its original chunk order.
TEST(TaskSchedulerTest, BoostMovesQueuedChunksAheadOfBacklog) {
  TaskScheduler scheduler(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<bool> started{false};
  TaskScheduler::JobRef blocker =
      scheduler.Submit(1, [&](int64_t, int) {
        started.store(true, std::memory_order_release);
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
      });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  std::mutex order_mu;
  std::vector<std::pair<int, int64_t>> order;
  auto record = [&](int tag, int64_t c) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.emplace_back(tag, c);
  };
  TaskScheduler::JobRef job_a = scheduler.Submit(
      2, [&](int64_t c, int) { record(0, c); });
  TaskScheduler::JobRef job_b = scheduler.Submit(
      2, [&](int64_t c, int) { record(1, c); });
  scheduler.Boost(job_b);
  EXPECT_GE(scheduler.stats().boosts, 1);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  scheduler.Wait(job_a);
  scheduler.Wait(job_b);
  scheduler.Wait(blocker);
  ASSERT_EQ(order.size(), 4u);
  // B's chunks first (relative order preserved), then A's.
  EXPECT_EQ(order[0], (std::pair<int, int64_t>{1, 0}));
  EXPECT_EQ(order[1], (std::pair<int, int64_t>{1, 1}));
  EXPECT_EQ(order[2], (std::pair<int, int64_t>{0, 0}));
  EXPECT_EQ(order[3], (std::pair<int, int64_t>{0, 1}));

  // Boosting null / finished jobs is a harmless no-op.
  scheduler.Boost(nullptr);
  scheduler.Boost(job_b);
}

TEST(TaskSchedulerTest, DestructorDrainsQueuedChunks) {
  std::atomic<int64_t> ran{0};
  {
    TaskScheduler scheduler(2);
    for (int j = 0; j < 32; ++j) {
      scheduler.Submit(16, [&](int64_t, int) {
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No Wait: destruction must drain everything.
  }
  EXPECT_EQ(ran.load(), 32 * 16);
}

// A chunk that submits a job to its own scheduler and waits on it: with a
// single worker, nothing but the waiting worker itself can run the inner
// chunks, so Wait must help rather than sleep. A watchdog bounds the
// outer wait; on a deadlock the scheduler is leaked (its one worker is
// parked for good) so the test fails instead of hanging in the destructor.
TEST(TaskSchedulerTest, NestedWaitOnOwnWorkerHelpsInsteadOfDeadlocking) {
  auto scheduler = std::make_unique<TaskScheduler>(1);
  const int64_t kInner = 8;
  std::vector<int> inner_hits(kInner, 0);
  std::atomic<bool> inner_failed{true};
  TaskScheduler::JobRef outer =
      scheduler->Submit(1, [&](int64_t, int outer_worker) {
        TaskScheduler::JobRef inner =
            scheduler->Submit(kInner, [&](int64_t c, int worker) {
              EXPECT_EQ(worker, outer_worker);
              ++inner_hits[c];
            });
        scheduler->Wait(inner);
        inner_failed.store(!TaskScheduler::Finished(inner) || inner->failed(),
                           std::memory_order_release);
      });
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!TaskScheduler::Finished(outer) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!TaskScheduler::Finished(outer)) {
    (void)scheduler.release();  // Deliberate leak: see above.
    FAIL() << "nested Wait on the scheduler's own worker deadlocked";
  }
  scheduler->Wait(outer);
  EXPECT_FALSE(outer->failed());
  EXPECT_FALSE(inner_failed.load(std::memory_order_acquire));
  for (int64_t c = 0; c < kInner; ++c) EXPECT_EQ(inner_hits[c], 1) << c;
  EXPECT_EQ(scheduler->queue_depth(), 0);
}

// Every job's callback fires exactly once, after finished(), whatever its
// chunk count. The chunks hold until every JobRef is published, so the
// callback can look its own job up and check the ordering the reactor
// relies on: when it runs, Wait() on that job cannot block.
TEST(TaskSchedulerTest, CompletionCallbackFiresOnceAfterFinished) {
  TaskScheduler scheduler(4);
  const int kJobs = 24;
  std::vector<TaskScheduler::JobRef> jobs(kJobs);
  std::vector<std::atomic<int>> fired(kJobs);
  std::vector<std::atomic<int>> finished_at_fire(kJobs);
  std::atomic<bool> armed{false};
  for (int j = 0; j < kJobs; ++j) {
    const int64_t chunks = 1 + (j * 7) % 40;
    jobs[j] = scheduler.Submit(
        chunks,
        [&armed](int64_t, int) {
          while (!armed.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        },
        /*priority=*/j % 2,
        [&, j] {
          finished_at_fire[j].store(jobs[j]->finished() ? 1 : 0);
          fired[j].fetch_add(1);
        });
  }
  armed.store(true, std::memory_order_release);
  for (const auto& job : jobs) scheduler.Wait(job);
  ASSERT_TRUE(EventuallyTrue([&] {
    for (const auto& f : fired) {
      if (f.load() == 0) return false;
    }
    return true;
  }));
  // Give a (buggy) second firing time to land before counting.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int j = 0; j < kJobs; ++j) {
    EXPECT_EQ(fired[j].load(), 1) << "job " << j;
    EXPECT_EQ(finished_at_fire[j].load(), 1) << "job " << j;
  }
}

// Zero-chunk jobs and inline schedulers run the callback on the submitting
// thread before Submit returns — after every chunk, with finished() true.
TEST(TaskSchedulerTest, CompletionCallbackOnSubmitterForEmptyAndInlineJobs) {
  const std::thread::id caller = std::this_thread::get_id();
  for (int threads : {0, 2}) {
    TaskScheduler scheduler(threads);
    int fired = 0;
    std::thread::id fired_on;
    TaskScheduler::JobRef empty = scheduler.Submit(
        0, [](int64_t, int) { FAIL() << "no chunks should run"; }, 0,
        [&] {
          ++fired;
          fired_on = std::this_thread::get_id();
        });
    EXPECT_EQ(fired, 1) << threads << " threads";
    EXPECT_EQ(fired_on, caller);
    EXPECT_TRUE(TaskScheduler::Finished(empty));
  }

  TaskScheduler inline_scheduler(0);
  std::vector<int64_t> ran;
  int fired = 0;
  size_t chunks_before_fire = 0;
  std::thread::id fired_on;
  TaskScheduler::JobRef job = inline_scheduler.Submit(
      5, [&](int64_t c, int) { ran.push_back(c); }, 0,
      [&] {
        ++fired;
        chunks_before_fire = ran.size();
        fired_on = std::this_thread::get_id();
      });
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(chunks_before_fire, 5u);
  EXPECT_EQ(fired_on, caller);
  EXPECT_TRUE(TaskScheduler::Finished(job));
}

// A nested job awaited from a worker: the waiting worker runs the inner
// chunks itself, so it also finishes the last one and runs the inner
// callback — before its Wait returns. The outer callback fires too.
TEST(TaskSchedulerTest, CompletionCallbackForNestedJobRunsOnHelpingWorker) {
  TaskScheduler scheduler(1);
  std::atomic<int> inner_fired{0};
  std::atomic<int> outer_fired{0};
  std::atomic<int> inner_fired_before_wait_returned{-1};
  std::atomic<bool> same_thread{false};
  TaskScheduler::JobRef outer = scheduler.Submit(
      1,
      [&](int64_t, int) {
        const std::thread::id me = std::this_thread::get_id();
        TaskScheduler::JobRef inner = scheduler.Submit(
            6, [](int64_t, int) {}, 0, [&, me] {
              same_thread.store(std::this_thread::get_id() == me);
              inner_fired.fetch_add(1);
            });
        scheduler.Wait(inner);
        inner_fired_before_wait_returned.store(inner_fired.load());
      },
      0, [&] { outer_fired.fetch_add(1); });
  scheduler.Wait(outer);
  ASSERT_TRUE(EventuallyTrue([&] { return outer_fired.load() == 1; }));
  EXPECT_EQ(inner_fired.load(), 1);
  EXPECT_EQ(inner_fired_before_wait_returned.load(), 1);
  EXPECT_TRUE(same_thread.load());
}

// A job whose chunks throw still completes: the callback fires exactly
// once and sees failed().
TEST(TaskSchedulerTest, CompletionCallbackFiresForFailedJob) {
  TaskScheduler scheduler(2);
  std::atomic<int> fired{0};
  std::atomic<bool> armed{false};
  TaskScheduler::JobRef job;
  std::atomic<bool> failed_at_fire{false};
  job = scheduler.Submit(
      12,
      [&](int64_t c, int) {
        while (!armed.load(std::memory_order_acquire)) {
          std::this_thread::yield();
        }
        if (c % 4 == 1) throw std::runtime_error("injected chunk fault");
      },
      0, [&] {
        failed_at_fire.store(job->failed());
        fired.fetch_add(1);
      });
  armed.store(true, std::memory_order_release);
  scheduler.Wait(job);
  ASSERT_TRUE(EventuallyTrue([&] { return fired.load() == 1; }));
  EXPECT_TRUE(failed_at_fire.load());
  EXPECT_TRUE(job->failed());
}

#if defined(TSUNAMI_FAULT_INJECTION)
// The scheduler's own fault site throws ahead of the chunk function: the
// job fails without ever running a chunk body, and the callback still
// fires exactly once per job.
TEST(TaskSchedulerTest, CompletionCallbackFiresWhenInjectedTaskThrows) {
  struct DisarmOnExit {
    ~DisarmOnExit() { fault::DisarmAll(); }
  } disarm;
  fault::FaultSpec spec;
  spec.probability = 1.0;
  fault::Arm("sched.task_throw", spec);
  {
    TaskScheduler scheduler(3);
    const int kJobs = 8;
    std::vector<std::atomic<int>> fired(kJobs);
    std::atomic<int64_t> bodies{0};
    std::vector<TaskScheduler::JobRef> jobs;
    for (int j = 0; j < kJobs; ++j) {
      jobs.push_back(scheduler.Submit(
          4, [&](int64_t, int) { bodies.fetch_add(1); }, 0,
          [&fired, j] { fired[j].fetch_add(1); }));
    }
    for (const auto& job : jobs) scheduler.Wait(job);
    ASSERT_TRUE(EventuallyTrue([&] {
      for (const auto& f : fired) {
        if (f.load() == 0) return false;
      }
      return true;
    }));
    for (int j = 0; j < kJobs; ++j) {
      EXPECT_EQ(fired[j].load(), 1) << "job " << j;
      EXPECT_TRUE(jobs[j]->failed()) << "job " << j;
    }
    EXPECT_EQ(bodies.load(), 0);
    EXPECT_EQ(scheduler.stats().task_failures, kJobs * 4);
  }
}
#endif  // TSUNAMI_FAULT_INJECTION

// The callback's captures are released once it has run — even a capture
// that holds the job's own JobRef (a cycle through the callback) — so the
// job and everything it captured are gone when the last JobRef drops.
TEST(TaskSchedulerTest, CompletionCallbackCapturesAreReleased) {
  {  // Inline: released before Submit returns, while the JobRef is held.
    TaskScheduler scheduler(0);
    auto sentinel = std::make_shared<int>(7);
    std::weak_ptr<int> weak = sentinel;
    TaskScheduler::JobRef job = scheduler.Submit(
        3, [](int64_t, int) {}, 0, [sentinel] { EXPECT_EQ(*sentinel, 7); });
    sentinel.reset();
    EXPECT_TRUE(weak.expired());
    EXPECT_TRUE(TaskScheduler::Finished(job));
  }
  {  // Threaded, with the callback holding its own job.
    TaskScheduler scheduler(2);
    auto sentinel = std::make_shared<int>(9);
    std::weak_ptr<int> weak_sentinel = sentinel;
    auto self = std::make_shared<TaskScheduler::JobRef>();
    std::atomic<bool> armed{false};
    std::atomic<int> fired{0};
    TaskScheduler::JobRef job = scheduler.Submit(
        8,
        [&armed](int64_t, int) {
          while (!armed.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        },
        0, [sentinel, self, &fired] { fired.fetch_add(1); });
    *self = job;
    std::weak_ptr<TaskScheduler::Job> weak_job = job;
    self.reset();
    sentinel.reset();
    armed.store(true, std::memory_order_release);
    scheduler.Wait(job);
    ASSERT_TRUE(EventuallyTrue([&] { return fired.load() == 1; }));
    job.reset();  // The test's last JobRef.
    // A worker may still be unwinding its Task's JobRef; never longer.
    EXPECT_TRUE(EventuallyTrue([&] { return weak_job.expired(); }));
    EXPECT_TRUE(weak_sentinel.expired());
  }
}

}  // namespace
}  // namespace tsunami
