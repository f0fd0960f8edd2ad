// In-memory span recorder for the traced benchmark run, plus the forwarding
// index wrapper that times MultiDimIndex::Prepare from outside the library.
//
// Spans are recorded only around calls the benchmark itself makes or hands
// to the server (the insert sink, the wrapped Prepare, the client's
// send->receive, the single-thread ExecutePlan replay); nothing inside src/
// is instrumented. Spans stay in memory and are written once, at the end.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/index.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval. Spans of one request share `request`; `parent` is
/// the span id of the span that caused this one (0 = root).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t request = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Tracer {
 public:
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  /// Records a span and returns its id. `id` 0 assigns the next
  /// sequential id; client spans pass ClientSpanId(request) instead.
  uint64_t Add(const char* name, uint64_t id, uint64_t request,
               uint64_t parent, int64_t start_ns, int64_t end_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    if (id == 0) id = spans_.size() + 1;
    spans_.push_back(Span{name, id, request, parent, start_ns, end_ns});
    return id;
  }

  /// A request's client span is recorded when its response arrives, after
  /// the server-side spans it caused, so those name their parent by this
  /// reserved id (top bit set; sequential ids never reach it).
  static uint64_t ClientSpanId(uint64_t request) {
    return request == 0 ? 0 : (uint64_t{1} << 63) | request;
  }

  /// Client side: a query with this fingerprint was just sent as
  /// `request`. The Prepare span it triggers on the server is attributed to
  /// the latest request sent with the same fingerprint.
  void NoteQuerySent(uint64_t fingerprint, uint64_t request) {
    std::lock_guard<std::mutex> lock(mu_);
    last_query_request_[fingerprint] = request;
  }
  uint64_t RequestForQuery(uint64_t fingerprint) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = last_query_request_.find(fingerprint);
    return it == last_query_request_.end() ? 0 : it->second;
  }

  /// Client side: the next insert frame on the (single, ordered) insert
  /// connection is `request`. The server calls the sink in frame order, so
  /// the k-th sink call belongs to the k-th insert sent.
  void NoteInsertSent(uint64_t request) {
    std::lock_guard<std::mutex> lock(mu_);
    insert_requests_.push_back(request);
  }
  uint64_t RequestForInsert(size_t sequence) const {
    std::lock_guard<std::mutex> lock(mu_);
    return sequence < insert_requests_.size() ? insert_requests_[sequence] : 0;
  }

  /// Snapshot of every span recorded so far.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Writes one JSON object per span. Returns false if the file could not
  /// be written.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"request\":%llu,"
                   "\"parent\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::unordered_map<uint64_t, uint64_t> last_query_request_;
  std::vector<uint64_t> insert_requests_;
};

/// Forwards every MultiDimIndex call to `inner`; while the tracer is on,
/// Prepare is timed and recorded as a "core.prepare" span. The service and
/// its plan cache see this wrapper as the index.
class TimedIndex : public tsunami::MultiDimIndex {
 public:
  TimedIndex(const tsunami::MultiDimIndex* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string Name() const override { return inner_->Name(); }
  tsunami::QueryResult Execute(const tsunami::Query& query) const override {
    return inner_->Execute(query);
  }
  tsunami::QueryPlan Prepare(const tsunami::Query& query) const override {
    if (!tracer_->on()) return inner_->Prepare(query);
    const int64_t start = NowNs();
    tsunami::QueryPlan plan = inner_->Prepare(query);
    const int64_t end = NowNs();
    const uint64_t request =
        tracer_->RequestForQuery(tsunami::QueryFingerprint(query));
    tracer_->Add("core.prepare", 0, request, Tracer::ClientSpanId(request),
                 start, end);
    return plan;
  }
  tsunami::QueryResult ExecutePlan(const tsunami::QueryPlan& plan,
                                   tsunami::ExecContext& ctx) const override {
    return inner_->ExecutePlan(plan, ctx);
  }
  void FinishPlan(const tsunami::QueryPlan& plan,
                  tsunami::QueryResult* result) const override {
    inner_->FinishPlan(plan, result);
  }
  const tsunami::MultiDimIndex& PlanTarget(
      const tsunami::QueryPlan& plan) const override {
    return inner_->PlanTarget(plan);
  }
  std::vector<tsunami::QueryResult> ExecuteBatch(
      std::span<const tsunami::Query> queries,
      tsunami::ExecContext& ctx) const override {
    return inner_->ExecuteBatch(queries, ctx);
  }
  uint64_t StoreVersion() const override { return inner_->StoreVersion(); }
  int64_t IndexSizeBytes() const override { return inner_->IndexSizeBytes(); }
  const tsunami::ColumnStore& store() const override {
    return inner_->store();
  }

 private:
  const tsunami::MultiDimIndex* inner_;
  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
