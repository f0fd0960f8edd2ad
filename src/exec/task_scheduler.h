// Work-stealing task scheduler: the library's one executor. It runs the
// serving path's per-query chunks, batch fan-outs (ExecuteBatch,
// ExecutePlans), ExecuteRangeTasks' row-balanced chunks, and parallel
// region builds (§6.1: "optimization and data sorting for index creation
// are performed in parallel").
//
// A skewed query batch is why it steals rather than drains one FIFO queue:
// once each worker holds one query, a giant region query would serialize
// on its worker while the needle queries finish and the rest of the
// machine idles. The classic per-worker-deque design closes that gap: each
// worker owns a deque, submitted jobs spread their chunks round-robin
// across all deques, a worker pops from the front of its own deque and —
// when empty — steals from the back of a victim's, so the chunks of a
// decomposed giant query are picked up by every idle core regardless of
// which deques they landed in.
//
// Jobs are chunk-indexed fan-outs (`fn(chunk, worker)` for chunk in
// [0, num_chunks)) with an asynchronous completion handle, which is the
// shape both clients need: QueryService decomposes each admitted query's
// QueryPlan into block-aligned RangeTask chunks and submits one job per
// query (Await blocks on the handle), and ExecuteRangeTasks submits its
// row-balanced chunk lists and waits inline. Chunks of concurrently
// submitted jobs interleave in the deques — that is the point: one shared
// scheduler parallelizes *across* queries and *within* each query at once.
//
// Jobs nest. A chunk may submit to its own scheduler and Wait: a Wait on
// one of the scheduler's workers first runs the awaited job's still-queued
// chunks itself (from any deque), and sleeps only once none is left. It
// never runs another job's chunk, so the nesting depth is bounded by the
// callers' own nesting, and a helped chunk sees the waiter's worker index.
//
// A job may carry a completion callback: it runs exactly once, on the
// thread that finished the job's last chunk (the submitting thread for
// zero-chunk jobs and inline schedulers), after finished() is published —
// so whatever it wakes finds Wait() already satisfied. This is how an
// event loop learns a job is done without polling it (the network front
// end's reactor is woken this way).
//
// Chunks must be independent; result aggregation is the caller's job
// (per-chunk partials merged after Wait, the same disjoint-rows argument
// ExecuteRangeTasks already relies on). A chunk that throws does not take
// the worker down: the exception is swallowed, the job is marked failed()
// and still completes (Wait never hangs), and the caller decides what a
// failed job's partials are worth — QueryService discards them and reports
// the query as failed.
#ifndef TSUNAMI_EXEC_TASK_SCHEDULER_H_
#define TSUNAMI_EXEC_TASK_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tsunami {

class TaskScheduler {
 public:
  /// One submitted fan-out. Opaque to callers; pass the handle back to
  /// Wait() / Finished(). Held by shared_ptr so in-flight chunks keep the
  /// job alive even if the submitter abandons the handle.
  class Job {
   public:
    bool finished() const { return done_.load(std::memory_order_acquire); }

    /// True when any chunk of this job threw. The job still completes (every
    /// chunk runs or is drained); the caller must treat its partials as
    /// untrustworthy.
    bool failed() const { return failed_.load(std::memory_order_acquire); }

   private:
    friend class TaskScheduler;
    std::function<void(int64_t, int)> fn_;
    std::function<void()> on_done_;  // Moved out and run by FinishJob.
    std::atomic<int64_t> remaining_{0};
    std::atomic<bool> done_{false};
    std::atomic<bool> failed_{false};
    std::mutex mu_;
    std::condition_variable cv_;
  };
  using JobRef = std::shared_ptr<Job>;

  /// Cumulative counters since construction. `steals` is the health metric
  /// for skewed batches: zero on a balanced batch, large when workers ran
  /// dry and pulled a straggler's chunks.
  struct Stats {
    int64_t jobs = 0;
    int64_t chunks = 0;
    int64_t steals = 0;
    int64_t boosts = 0;         // Jobs moved to deque fronts by Boost().
    int64_t task_failures = 0;  // Chunks that threw (swallowed, job failed).
  };

  /// With `threads <= 0` the scheduler degenerates to inline execution on
  /// the submitting thread (deterministic chunk order; nothing to steal),
  /// which keeps single-threaded paths free of synchronization.
  explicit TaskScheduler(int threads);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Enqueues `fn(chunk, worker)` for chunk in [0, num_chunks), spreading
  /// chunks round-robin across the per-worker deques, and returns
  /// immediately. `worker` is the index of the executing worker (0 on the
  /// submitting thread for inline schedulers) — useful for per-worker
  /// scratch. Chunks with `priority > 0` are pushed to the *front* of the
  /// deques, so a latency-sensitive query's chunks run ahead of queued
  /// backlog (stealing still takes victims' backs, preserving the jump).
  ///
  /// `on_done` (optional) runs exactly once per job — failed jobs included
  /// — on the thread that finished the last chunk, *after* finished() is
  /// true, so a Wait() it triggers never blocks. A zero-chunk job or an
  /// inline scheduler runs it on the submitting thread before Submit
  /// returns. It must not throw; the state it captures is released right
  /// after it runs.
  JobRef Submit(int64_t num_chunks, std::function<void(int64_t, int)> fn,
                int priority = 0, std::function<void()> on_done = nullptr);

  /// Blocks until every chunk of `job` has finished. Called on one of this
  /// scheduler's workers, it first runs the job's still-queued chunks on
  /// the calling thread, so a chunk waiting on a nested job cannot
  /// deadlock the deques.
  void Wait(const JobRef& job);

  /// Moves every still-queued chunk of `job` to the front of its deque,
  /// preserving their relative order — the dynamic half of prioritization:
  /// priorities are otherwise fixed at Submit, but a query drifting toward
  /// its deadline can be boosted past queued backlog mid-flight
  /// (QueryService does this when a pending query's remaining deadline
  /// budget falls below half). Chunks already running or finished are
  /// unaffected; a no-op for null/finished jobs and inline schedulers.
  void Boost(const JobRef& job);

  /// Non-blocking completion check.
  static bool Finished(const JobRef& job) { return job->finished(); }

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Chunks currently queued (not yet picked up); the service's queue-depth
  /// gauge.
  int64_t queue_depth() const {
    return queued_.load(std::memory_order_relaxed);
  }

  Stats stats() const;

  /// A sensible default worker count: hardware concurrency, at least 1.
  static int DefaultThreads();

 private:
  struct Task {
    JobRef job;
    int64_t chunk = 0;
  };
  /// One worker's deque. Guarded by its own mutex — chunk granularity is
  /// thousands of rows, so a short critical section per pop/steal is noise
  /// next to the scan itself, and plain mutexes keep the stealing protocol
  /// obviously correct under TSan.
  struct Worker {
    std::mutex mu;
    std::deque<Task> deque;
  };

  void WorkerLoop(int id);
  /// Pops from the front of worker `id`'s own deque, or steals from the
  /// back of another's. Returns false when every deque is empty.
  bool NextTask(int id, Task* out);
  /// Removes one still-queued chunk of `job` from any deque, scanning from
  /// worker `id`'s own. Returns false when none is queued.
  bool TakeQueuedChunk(const JobRef& job, int id, Task* out);
  void RunTask(const Task& task, int worker);
  /// Publishes `job` as finished, wakes its waiters, then runs (and
  /// releases) its completion callback.
  static void FinishJob(Job* job);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex sleep_mu_;
  std::condition_variable work_cv_;
  bool shutting_down_ = false;

  std::atomic<int64_t> queued_{0};
  std::atomic<uint64_t> next_worker_{0};  // Round-robin submission cursor.
  std::atomic<int64_t> jobs_{0};
  std::atomic<int64_t> chunks_{0};
  std::atomic<int64_t> steals_{0};
  std::atomic<int64_t> boosts_{0};
  std::atomic<int64_t> task_failures_{0};
};

}  // namespace tsunami

#endif  // TSUNAMI_EXEC_TASK_SCHEDULER_H_
