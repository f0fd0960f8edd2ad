// perfbench_e2e: the repository benchmark. Serves the tsunami wire protocol
// in-process (TsunamiServer -> TimedIndex -> QueryService ->
// ingest::IngestStore, durable through DurableIngestStore in
// durable_mixed), drives it over loopback with the open-/closed-loop
// generator in loadgen.h, checks every answer, and writes every metric with
// its unit to --result as JSON. perfbench/run.py builds and runs it; see
// perfbench/README.md for the workloads and metrics.
//
//   perfbench_e2e --workload hot_read|fresh_read|durable_mixed --seed N
//                 --seconds S --trace 0|1 --result PATH [--trace-out PATH]
//                 [--work-dir DIR] [--git-rev REV] [--self-check]
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/loadgen.h"
#include "perfbench/trace.h"
#include "src/baselines/full_scan.h"
#include "src/common/random.h"
#include "src/core/tsunami.h"
#include "src/datasets/taxi.h"
#include "src/durability/durable_store.h"
#include "src/ingest/ingest_store.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/serve/query_service.h"
#include "src/storage/column_store.h"
#include "src/storage/simd_dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace tsunami;

/// The taxi table and the 600-query workload the index is optimized for are
/// fixed; --seed draws the request stream (hot set, query order, fresh
/// queries, inserted rows). Index structure therefore repeats exactly
/// across seeds and runs.
constexpr uint64_t kDataSeed = 1;
constexpr int kBuildQueriesPerType = 100;
constexpr int kQueryTypes = 6;
constexpr int kBuildQueries = kBuildQueriesPerType * kQueryTypes;
constexpr int kHotQueries = kBuildQueries / 100;  // 1% of the pool...
constexpr double kHotShare = 0.5;                 // ...draws half the traffic.
// durable_mixed's insert stream: 5000 rows/s in 512-row kInsert batches
// (~10/s). The insert sink waits for each batch's fsync on the reactor
// thread, so the batch rate sets how much of the reactor's time the host
// disk owns; at 156 batches/s a neighbour's disk writes lifted query p50
// tenfold (see README.md).
constexpr double kInsertRowsPerSecond = 5000;
constexpr int kBatchRows = 512;
// Closed-loop requests in flight, split over the query connections.
constexpr int kSatInflight = 256;

/// Table size, offered query rate, setups per run, and the fresh queries
/// for fresh_read's closed-loop phase (each needs a full-scan reference
/// answer; the phase ends when they run out and is timed to its last
/// reply).
struct Scale {
  int64_t rows;
  double query_rate;
  int setups;
  int fresh_sat_queries;
};
constexpr Scale kBenchScale{200000, 2000, 3, 80000};
/// --self-check: a small table, for the benchmark's own test.
constexpr Scale kSelfCheckScale{20000, 1000, 2, 3000};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string result_path;
  std::string trace_out;
  std::string work_dir = ".bench_build/work";
  std::string git_rev = "unknown";
  Scale scale = kBenchScale;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-check") {
      args->scale = kSelfCheckScale;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") args->workload = v;
    else if (flag == "--seed") args->seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") args->seconds = std::atof(v);
    else if (flag == "--trace") args->trace = std::atoi(v) != 0;
    else if (flag == "--result") args->result_path = v;
    else if (flag == "--trace-out") args->trace_out = v;
    else if (flag == "--work-dir") args->work_dir = v;
    else if (flag == "--git-rev") args->git_rev = v;
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return (args->workload == "hot_read" || args->workload == "fresh_read" ||
          args->workload == "durable_mixed") &&
         !args->result_path.empty() && args->seconds > 0;
}

// --- Statistics -------------------------------------------------------------

/// Nearest-rank percentile; `q` in [0, 1]. Empty input gives 0.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- Index and serving stack ------------------------------------------------

/// Fixed index-build settings. The cost weights are CostWeights{}'s fixed
/// constants, never CalibrateCostWeights(): a per-process calibration makes
/// the index structure differ from run to run. The optimizer's sample sizes
/// keep one build to about two seconds on four cores.
TsunamiOptions IndexOptions(int threads) {
  TsunamiOptions options;
  options.agd.max_sample_points = 512;
  options.agd.max_sample_queries = 32;
  options.agd.max_iters = 2;
  options.agd.blackbox_iters = 10;
  options.agd.max_candidate_others = 2;
  options.agd.max_cells = int64_t{1} << 18;
  options.agd.weights = CostWeights{};
  options.sample_rows = 20000;
  options.tree.max_regions = 8;
  options.build_threads = threads;
  return options;
}

/// One serving stack: store, timed index wrapper, service, server, and the
/// server's loop thread. Stop() tears it down in dependency order.
struct Stack {
  std::unique_ptr<durability::DurableIngestStore> durable;
  std::unique_ptr<ingest::IngestStore> memory;
  ingest::IngestStore* store = nullptr;
  std::unique_ptr<TimedIndex> timed;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<net::TsunamiServer> server;
  std::thread loop;
  uint64_t sink_calls = 0;  // Sink calls while tracing (reactor thread).
  std::string wal_dir;

  ~Stack() { Stop(); }

  void Stop() {
    if (server != nullptr) {
      server->RequestStop();
      if (loop.joinable()) loop.join();
    }
    // The compactor must not publish into a destroyed plan cache.
    if (store != nullptr) store->StopBackground();
    server.reset();
    service.reset();
    timed.reset();
    memory.reset();
    durable.reset();
    store = nullptr;
    if (!wal_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(wal_dir, ec);
      wal_dir.clear();
    }
  }
};

const char* kFlushPolicy =
    "wal=on fsync=on durable_acks=on commit_delay_us=0 checkpoint_on_fold=on "
    "background_compaction=on";

/// Builds and starts one stack; everything here counts toward setup_s.
std::unique_ptr<Stack> StartStack(const Args& args, const Benchmark& bench,
                                  const Workload& build_workload, int threads,
                                  int setup_index, Tracer* tracer,
                                  std::string* error) {
  auto stack = std::make_unique<Stack>();
  ingest::IngestOptions ingest_options;
  ingest_options.index = IndexOptions(threads);
  // Fold (and, durable, checkpoint the whole index) every 4 sealed chunks
  // rather than every 2: each checkpoint rewrites the store, and WAL
  // fsyncs queue behind those writes on the same disk.
  ingest_options.compact_min_chunks = 4;
  if (args.workload == "durable_mixed") {
    stack->wal_dir = args.work_dir + "/wal-" + std::to_string(::getpid()) +
                     "-" + std::to_string(setup_index);
    std::error_code ec;
    std::filesystem::remove_all(stack->wal_dir, ec);
    std::filesystem::create_directories(stack->wal_dir, ec);
    durability::DurabilityOptions dopts;
    dopts.dir = stack->wal_dir;
    dopts.durable_acks = true;
    dopts.fsync = true;
    dopts.checkpoint_on_fold = true;
    dopts.wal_commit_delay_micros = 0;
    dopts.ingest = ingest_options;
    dopts.ingest.background_compaction = true;
    stack->durable = durability::DurableIngestStore::Open(
        bench.data, build_workload, dopts, error);
    if (stack->durable == nullptr) return nullptr;
    stack->store = &stack->durable->store();
  } else {
    stack->memory = std::make_unique<ingest::IngestStore>(
        bench.data, build_workload, ingest_options);
    stack->store = stack->memory.get();
  }
  stack->timed = std::make_unique<TimedIndex>(stack->store, tracer);

  // Unbounded admission and no per-client or per-connection in-flight
  // caps: a reactor stall (an fsync'd insert behind a checkpoint write)
  // piles the open-loop queries up on their one connection, and latency
  // should show that wait rather than kQueueFull/kClientBusy refusals.
  ServiceOptions service_options;
  service_options.threads = threads;
  stack->service =
      std::make_unique<QueryService>(stack->timed.get(), service_options);
  QueryService* service = stack->service.get();
  const TimedIndex* timed = stack->timed.get();
  stack->store->AddPublishListener([service, timed](uint64_t) {
    service->plan_cache().InvalidateIndex(*timed);
  });

  net::ServerOptions server_options;
  server_options.max_inflight_per_conn = 1 << 20;
  // Only durable_mixed inserts; the read workloads' server stays read-only.
  durability::DurableIngestStore* durable = stack->durable.get();
  if (durable != nullptr) {
    const int dims = bench.data.dims();
    uint64_t* sink_calls = &stack->sink_calls;
    server_options.insert_sink =
        [durable, dims, tracer, sink_calls](
            const std::vector<std::vector<Value>>& rows,
            uint64_t* version) -> int64_t {
      const bool traced = tracer->on();
      const int64_t start = traced ? NowNs() : 0;
      int64_t result = static_cast<int64_t>(rows.size());
      int64_t batch_start = 0;
      int64_t batch_end = 0;
      for (const std::vector<Value>& row : rows) {
        if (static_cast<int>(row.size()) != dims) {
          result = net::ServerOptions::kSinkRejected;
        }
      }
      if (result >= 0) {
        if (traced) batch_start = NowNs();
        switch (durable->TryInsertBatch(rows)) {
          case durability::InsertResult::kOk:
            break;
          case durability::InsertResult::kResourceExhausted:
            result = net::ServerOptions::kSinkResourceExhausted;
            break;
          case durability::InsertResult::kNotDurable:
          case durability::InsertResult::kRejected:
            result = net::ServerOptions::kSinkNotDurable;
            break;
        }
        if (traced) batch_end = NowNs();
        *version = durable->store().version();
      }
      if (traced) {
        const uint64_t request = tracer->RequestForInsert((*sink_calls)++);
        const uint64_t span =
            tracer->Add("net.insert_sink", 0, request,
                        Tracer::ClientSpanId(request), start, NowNs());
        if (batch_end != 0) {
          tracer->Add("durability.insert_batch", 0, request, span,
                      batch_start, batch_end);
        }
      }
      return result;
    };
  }
  stack->server =
      std::make_unique<net::TsunamiServer>(service, server_options);
  if (!stack->server->Start(error)) return nullptr;
  net::TsunamiServer* server = stack->server.get();
  stack->loop = std::thread([server] { server->Run(); });
  return stack;
}

/// Structure counts that must repeat exactly for a fixed seed.
struct Structure {
  int64_t index_bytes = 0;
  int64_t cells = 0;
  int64_t regions = 0;
  int64_t replay_scanned = 0;
  int64_t replay_matched = 0;
  bool operator==(const Structure&) const = default;
};

// --- Single-thread ExecutePlan replay (storage layer) -----------------------

struct Replay {
  std::vector<double> per_query_us;  // Median of the reps, per query.
  int64_t scanned = 0;
  int64_t matched = 0;
  int64_t cell_ranges = 0;
  double scan_seconds = 0;      // Sum of per_query_us.
  double filtered_bytes = 0;    // 8 B x filtered columns x rows scanned.
  int64_t wrong = 0;
};

Replay RunReplay(const ingest::IngestStore& store,
                 const std::vector<Query>& table,
                 const std::vector<QueryResult>& reference, size_t begin,
                 size_t end, Tracer* tracer) {
  constexpr int kReps = 3;
  Replay replay;
  ExecContext ctx;  // Inline: one thread, no scheduler.
  for (size_t i = begin; i < end; ++i) {
    const QueryPlan plan = store.Prepare(table[i]);
    const MultiDimIndex& target = store.PlanTarget(plan);
    std::vector<double> reps;
    QueryResult result;
    for (int rep = 0; rep < kReps; ++rep) {
      const int64_t start = NowNs();
      result = target.ExecutePlan(plan, ctx);
      const int64_t stop = NowNs();
      reps.push_back(static_cast<double>(stop - start) * 1e-3);
      if (tracer->on() && rep == 0) {
        tracer->Add("storage.execute_plan", 0, (uint64_t{0xFFFF} << 32) | i,
                    0, start, stop);
      }
    }
    target.FinishPlan(plan, &result);
    if (result.agg != reference[i].agg ||
        result.matched != reference[i].matched) {
      ++replay.wrong;
    }
    const double us = Percentile(reps, 0.5);
    replay.per_query_us.push_back(us);
    replay.scan_seconds += us * 1e-6;
    replay.scanned += result.scanned;
    replay.matched += result.matched;
    replay.cell_ranges += result.cell_ranges;
    std::vector<int> dims;
    for (const Predicate& p : table[i].filters) {
      if (std::find(dims.begin(), dims.end(), p.dim) == dims.end()) {
        dims.push_back(p.dim);
      }
    }
    replay.filtered_bytes += 8.0 * static_cast<double>(dims.size()) *
                             static_cast<double>(result.scanned);
  }
  return replay;
}

/// Host memcpy bandwidth (bytes copied per second), best of several passes
/// over 64 MiB buffers.
double MeasureMemcpyBytesPerSecond() {
  const size_t bytes = size_t{64} << 20;
  std::vector<char> src(bytes, 1);
  std::vector<char> dst(bytes, 0);
  double best = 0;
  for (int pass = 0; pass < 6; ++pass) {
    const int64_t start = NowNs();
    std::memcpy(dst.data(), src.data(), bytes);
    const int64_t stop = NowNs();
    src[static_cast<size_t>(pass)] = dst[bytes - 1 - static_cast<size_t>(pass)];
    best = std::max(best, static_cast<double>(bytes) /
                              (static_cast<double>(stop - start) * 1e-9));
  }
  return best;
}

// --- Parallel helpers -------------------------------------------------------

template <typename Fn>
void ParallelFor(size_t n, int threads, Fn&& fn) {
  std::vector<std::thread> pool;
  std::atomic<size_t> next{0};
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

bool RowMatches(const Query& query, const Value* row) {
  for (const Predicate& p : query.filters) {
    if (!p.Matches(row[p.dim])) return false;
  }
  return true;
}

// --- Metrics output ---------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  void Stamp(const std::string& key, const std::string& value) {
    stamps_[key] = "\"" + value + "\"";
  }
  void Stamp(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    stamps_[key] = buf;
  }
  void Error(const std::string& message) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", message.c_str());
    errors_.push_back(message);
  }

  bool Write(const std::string& path, int64_t attempted, int64_t failed) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"attempted\": %lld, \"failed\": %lld, \"checks_ok\": %s",
                 static_cast<long long>(attempted),
                 static_cast<long long>(failed),
                 errors_.empty() ? "true" : "false");
    std::fprintf(f, ",\n \"errors\": [");
    for (size_t i = 0; i < errors_.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", errors_[i].c_str());
    }
    std::fprintf(f, "],\n \"stamp\": {");
    bool first = true;
    for (const auto& [key, value] : stamps_) {
      std::fprintf(f, "%s\n  \"%s\": %s", first ? "" : ",", key.c_str(),
                   value.c_str());
      first = false;
    }
    std::fprintf(f, "},\n \"metrics\": {");
    first = true;
    for (const auto& [name, m] : metrics_) {
      // JSON has no infinity: a non-finite value (say, a p50 with more than
      // half the queries failed) is written as null.
      char value[64] = "null";
      if (std::isfinite(m.value)) {
        std::snprintf(value, sizeof(value), "%.17g", m.value);
      }
      std::fprintf(f, "%s\n  \"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                   first ? "" : ",", name.c_str(), value, m.unit.c_str());
      first = false;
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
  }

  void Print() const {
    for (const auto& [name, m] : metrics_) {
      std::printf("  %-36s %16.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }

  bool ok() const { return errors_.empty(); }

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> stamps_;
  std::vector<std::string> errors_;
};

// --- The run ----------------------------------------------------------------

struct StoreCounters {
  ingest::IngestStore::Stats ingest;
  durability::DurableIngestStore::Stats durable;
  ServiceStats service;
  net::ServerStats server;
};

StoreCounters Snapshot(const Stack& stack) {
  StoreCounters c;
  c.ingest = stack.store->stats();
  if (stack.durable != nullptr) c.durable = stack.durable->stats();
  c.service = stack.service->stats();
  c.server = stack.server->stats();
  return c;
}

int Run(const Args& args) {
  Report report;
  const bool fresh = args.workload == "fresh_read";
  const bool mixed = args.workload == "durable_mixed";
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int threads = std::min(4, nproc);
  // The open loop gives the bounded latency, so it gets most of the run:
  // host stalls come in bursts, and a longer phase averages over more.
  const double open_s = 0.8 * args.seconds;
  const double closed_s = 0.2 * args.seconds;
  const double warm_s = 0.3;
  // A traced run splits the open loop into an untraced baseline pass and
  // the traced pass, so it lasts as long as an untraced run.
  const double open_pass_s = args.trace ? open_s / 2 : open_s;
  const int64_t open_queries =
      static_cast<int64_t>(std::llround(args.scale.query_rate * open_pass_s));

  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);

  // --- Inputs (not timed) ---
  int fresh_needed = 0;
  if (fresh) {
    fresh_needed = static_cast<int>(
        args.scale.query_rate * (warm_s + open_s) +
        args.scale.fresh_sat_queries);
  }
  const int queries_per_type =
      kBuildQueriesPerType + (fresh_needed + kQueryTypes - 1) / kQueryTypes;
  const Benchmark bench =
      MakeTaxiBenchmark(args.scale.rows, kDataSeed, queries_per_type);
  const Workload build_workload(bench.workload.begin(),
                                bench.workload.begin() + kBuildQueries);
  std::vector<Query> table = bench.workload;  // [0,600) = build workload.
  Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 0x51);
  // Fresh queries: the rest of the pool, shuffled by the seed.
  for (size_t i = table.size(); i > kBuildQueries + 1; --i) {
    const size_t j = kBuildQueries + rng.NextBelow(i - kBuildQueries);
    std::swap(table[i - 1], table[j]);
  }
  const size_t ref_begin = fresh ? kBuildQueries : 0;
  const size_t ref_end = fresh ? table.size() : kBuildQueries;
  // Last entry: COUNT over every row, for the end-of-run row check.
  const uint32_t count_all_item = static_cast<uint32_t>(table.size());
  table.push_back(Query());

  std::vector<std::string> query_payloads;
  std::vector<uint64_t> fingerprints;
  for (const Query& q : table) {
    query_payloads.push_back(net::EncodeQueryPayload(q));
    fingerprints.push_back(QueryFingerprint(q));
  }

  // Hot set: kHotQueries pool queries drawing kHotShare of the traffic.
  std::vector<uint32_t> hot;
  while (static_cast<int>(hot.size()) < kHotQueries) {
    const uint32_t q = static_cast<uint32_t>(rng.NextBelow(kBuildQueries));
    if (std::find(hot.begin(), hot.end(), q) == hot.end()) hot.push_back(q);
  }
  auto draw_hot = [&hot](Rng* r) -> uint32_t {
    if (r->NextDouble() < kHotShare) return hot[r->NextBelow(hot.size())];
    return static_cast<uint32_t>(r->NextBelow(kBuildQueries));
  };
  std::atomic<size_t> fresh_cursor{static_cast<size_t>(kBuildQueries)};
  auto draw_fresh = [&](uint32_t* item) -> bool {
    const size_t i = fresh_cursor.fetch_add(1);
    if (i >= static_cast<size_t>(count_all_item)) return false;
    *item = static_cast<uint32_t>(i);
    return true;
  };

  // durable_mixed's insert batches, drawn from the seed (same generator,
  // another stream).
  const int batch_rows = kBatchRows;
  const int64_t insert_batches_needed =
      mixed ? static_cast<int64_t>(std::ceil(
                  kInsertRowsPerSecond * (open_s + closed_s) / batch_rows))
            : 0;
  const Benchmark insert_bench =
      mixed ? MakeTaxiBenchmark(insert_batches_needed * batch_rows,
                                args.seed + 0x1000003, 0)
            : Benchmark();
  const int dims = bench.data.dims();
  std::vector<std::string> insert_payloads;
  for (int64_t b = 0; b < insert_batches_needed; ++b) {
    std::vector<std::vector<Value>> rows(batch_rows);
    for (int r = 0; r < batch_rows; ++r) {
      const int64_t row = b * batch_rows + r;
      rows[r].assign(insert_bench.data.raw().begin() + row * dims,
                     insert_bench.data.raw().begin() + (row + 1) * dims);
    }
    insert_payloads.push_back(net::EncodeInsertPayload(rows));
  }

  Tracer tracer;
  Shared shared;
  shared.query_payloads = &query_payloads;
  shared.query_fingerprints = &fingerprints;
  shared.insert_payloads = &insert_payloads;
  shared.tracer = &tracer;

  // --- Reference answers: full scans over the base rows (not timed) ---
  std::vector<QueryResult> reference(table.size());
  {
    const FullScanIndex full_scan(bench.data);
    ParallelFor(ref_end - ref_begin, threads, [&](size_t k) {
      reference[ref_begin + k] = full_scan.Execute(table[ref_begin + k]);
    });
  }

  // --- Setup, repeated; the last stack serves the run ---
  std::vector<double> setup_seconds;
  std::vector<Structure> structures;
  std::unique_ptr<Stack> stack;
  Replay replay;
  std::string error;
  const size_t replay_end = std::min(ref_end, ref_begin + kBuildQueries);
  for (int k = 0; k < args.scale.setups; ++k) {
    if (stack != nullptr) stack->Stop();
    stack.reset();
    const int64_t start = NowNs();
    stack = StartStack(args, bench, build_workload, threads, k, &tracer,
                       &error);
    const int64_t stop = NowNs();
    if (stack == nullptr) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", error.c_str());
      return 1;
    }
    setup_seconds.push_back(static_cast<double>(stop - start) * 1e-9);
    const bool last = k + 1 == args.scale.setups;
    tracer.set_on(args.trace && last);
    replay = RunReplay(*stack->store, table, reference, ref_begin, replay_end,
                       &tracer);
    tracer.set_on(false);
    const TsunamiIndex& index = stack->store->CurrentSnapshot()->index();
    structures.push_back(Structure{stack->store->IndexSizeBytes(),
                                   index.stats().total_cells,
                                   index.stats().num_regions, replay.scanned,
                                   replay.matched});
    if (replay.wrong > 0) {
      report.Error("ExecutePlan replay: " + std::to_string(replay.wrong) +
                   " answers differ from the full scan");
    }
  }
  for (const Structure& s : structures) {
    if (!(s == structures.front())) {
      report.Error("index structure differs between builds of one seed");
    }
  }
  const TsunamiIndex::Stats index_stats =
      stack->store->CurrentSnapshot()->index().stats();
  const int port = stack->server->port();
  const double raw_bytes = static_cast<double>(args.scale.rows) * dims * 8.0;
  const double store_bytes = static_cast<double>(
      stack->store->CurrentSnapshot()->index().store().DataSizeBytes());
  const double index_bytes =
      static_cast<double>(stack->store->IndexSizeBytes());
  const double memcpy_bps = MeasureMemcpyBytesPerSecond();

  // --- Traffic ---
  std::vector<std::unique_ptr<Stream>> streams;  // Every stream of the run.
  uint32_t next_tag = 1;
  auto new_stream = [&](Kind kind) -> Stream* {
    streams.push_back(std::make_unique<Stream>());
    Stream* s = streams.back().get();
    s->kind = kind;
    s->tag = next_tag++;
    s->fd = ConnectLoopback(port);
    if (s->fd < 0) s->broken = true;
    return s;
  };
  uint32_t next_batch = 0;  // Insert batches are consumed in one order.
  auto paced = [&](Stream* s, double rate, int64_t count, int64_t start_ns,
                   const std::function<uint32_t()>& item) {
    s->paced = true;
    for (int64_t i = 0; i < count; ++i) {
      s->due.push_back(start_ns + static_cast<int64_t>(
                                      std::llround(1e9 * i / rate)));
      s->items.push_back(item());
    }
    s->samples.reserve(s->items.size());
  };
  auto query_item = [&]() -> uint32_t {
    if (fresh) {
      uint32_t item = 0;
      if (!draw_fresh(&item)) item = kBuildQueries;  // Sized not to happen.
      return item;
    }
    return draw_hot(&rng);
  };
  const int64_t slack_ns = 20'000'000'000;  // Replies due after the phase.
  // Runs one generator thread over `group` until its replies are in; the
  // calling thread samples the ingest backlog meanwhile.
  auto run_generator = [&](std::vector<Stream*> group, int64_t end_ns,
                        std::vector<double>* delta_rows) {
    std::thread generator([&shared, &group, end_ns, slack_ns] {
      Generator(&shared, group).Run(end_ns + slack_ns);
    });
    if (delta_rows != nullptr) {
      while (NowNs() < end_ns) {
        delta_rows->push_back(
            static_cast<double>(stack->store->stats().delta_rows));
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    generator.join();
  };

  // Warm-up: the plan cache and the scan path fill before timing. Hot
  // workloads send each pool query once; fresh_read sends warm_s of fresh
  // queries.
  {
    Stream* s = new_stream(Kind::kQuery);
    const int64_t start = NowNs() + 1'000'000;
    uint32_t i = 0;
    const int64_t count =
        fresh ? static_cast<int64_t>(args.scale.query_rate * warm_s)
              : kBuildQueries;
    paced(s, args.scale.query_rate, count, start, [&]() -> uint32_t {
      return fresh ? query_item() : i++;
    });
    run_generator({s}, s->due.back(), nullptr);
  }

  // Open loop (measured): queries at a fixed rate, plus fixed-rate insert
  // batches in durable_mixed. A traced run spends the first half untraced,
  // as the tracing-overhead baseline.
  std::vector<double> delta_rows;
  auto open_phase = [&](bool traced, Stream** q_out, Stream** i_out,
                        StoreCounters* before, StoreCounters* after) {
    Stream* q = new_stream(Kind::kQuery);
    const int64_t start = NowNs() + 2'000'000;
    paced(q, args.scale.query_rate, open_queries, start, query_item);
    std::vector<Stream*> group{q};
    Stream* ins = nullptr;
    if (mixed) {
      ins = new_stream(Kind::kInsert);
      const double batch_rate = kInsertRowsPerSecond / batch_rows;
      paced(ins, batch_rate,
            static_cast<int64_t>(std::floor(batch_rate * open_pass_s)), start,
            [&]() -> uint32_t { return next_batch++; });
      group.push_back(ins);
    }
    *before = Snapshot(*stack);
    tracer.set_on(traced);
    run_generator(group, start + static_cast<int64_t>(open_pass_s * 1e9),
                &delta_rows);
    tracer.set_on(false);
    *after = Snapshot(*stack);
    *q_out = q;
    *i_out = ins;
  };

  StoreCounters window_begin = Snapshot(*stack);
  Stream* open_q = nullptr;
  Stream* open_i = nullptr;
  StoreCounters open_before, open_after;
  Stream* base_q = nullptr;
  if (args.trace) {
    Stream* unused = nullptr;
    StoreCounters b, a;
    open_phase(false, &base_q, &unused, &b, &a);
  }
  open_phase(args.trace, &open_q, &open_i, &open_before, &open_after);

  // Closed loop (measured): pipelined at a fixed depth on every connection,
  // all driven from one thread; durable_mixed keeps its paced insert
  // stream going on the fourth connection.
  std::vector<Stream*> closed;
  Stream* closed_ins = nullptr;
  int64_t closed_start = 0;
  int64_t closed_end = 0;
  {
    std::vector<Stream*> group;
    closed_start = NowNs() + 5'000'000;  // After the connects below.
    closed_end = closed_start + static_cast<int64_t>(closed_s * 1e9);
    const int query_conns = std::max(1, mixed ? threads - 1 : threads);
    for (int c = 0; c < query_conns; ++c) {
      Stream* s = new_stream(Kind::kQuery);
      s->paced = false;
      s->depth = kSatInflight / query_conns;
      s->end_ns = closed_end;
      auto r = std::make_shared<Rng>(args.seed * 131 + c + 7);
      if (fresh) {
        s->next = draw_fresh;
      } else {
        s->next = [r, &draw_hot](uint32_t* item) {
          *item = draw_hot(r.get());
          return true;
        };
      }
      closed.push_back(s);
      group.push_back(s);
    }
    if (mixed) {
      closed_ins = new_stream(Kind::kInsert);
      const double batch_rate = kInsertRowsPerSecond / batch_rows;
      paced(closed_ins, batch_rate,
            static_cast<int64_t>(std::floor(batch_rate * closed_s)),
            closed_start, [&]() -> uint32_t { return next_batch++; });
      group.push_back(closed_ins);
    }
    // Untraced: spans come from the open loop; tracing every closed-loop
    // request would record ~10^5 spans per second.
    run_generator(group, closed_end, &delta_rows);
  }
  StoreCounters window_end = Snapshot(*stack);

  // --- Quiesce, then the end-of-run row checks ---
  stack->store->StopBackground();
  int64_t acked_rows = 0;
  for (const auto& s : streams) {
    if (s->kind != Kind::kInsert) continue;
    for (const Sample& smp : s->samples) {
      if (smp.status == Status::kOk) acked_rows += smp.agg;
    }
  }
  const int64_t expected_rows = args.scale.rows + acked_rows;
  int64_t final_failures = 0;
  if (stack->store->rows() != expected_rows) {
    ++final_failures;
    report.Error("store rows() " + std::to_string(stack->store->rows()) +
                 " != base + acked " + std::to_string(expected_rows));
  }
  {
    Stream* s = new_stream(Kind::kQuery);
    paced(s, 1.0, 1, NowNs(), [&] { return count_all_item; });
    run_generator({s}, NowNs(), nullptr);
    const Sample& smp = s->samples.front();
    if (smp.status != Status::kOk || smp.agg != expected_rows) {
      ++final_failures;
      report.Error("COUNT(*) over the wire " + std::to_string(smp.agg) +
                   " != base + acked " + std::to_string(expected_rows));
    }
  }
  const StoreCounters final_counters = Snapshot(*stack);

  // --- Answer checks ---
  // Mixed: per pool query, prefix sums over insert batches of its matching
  // rows (all batches, and acked batches only) bound what a snapshot may
  // count.
  const size_t batches = next_batch;
  std::vector<int64_t> batch_acked(batches, 0);
  for (const auto& s : streams) {
    if (s->kind != Kind::kInsert) continue;
    for (const Sample& smp : s->samples) {
      if (smp.status == Status::kOk) batch_acked[smp.item] = 1;
    }
  }
  std::vector<std::vector<int32_t>> cum_all, cum_acked;
  if (mixed) {
    cum_all.assign(kBuildQueries, std::vector<int32_t>(batches + 1, 0));
    cum_acked.assign(kBuildQueries, std::vector<int32_t>(batches + 1, 0));
    const Value* rows = insert_bench.data.raw().data();
    ParallelFor(kBuildQueries, threads, [&](size_t q) {
      for (size_t b = 0; b < batches; ++b) {
        int32_t n = 0;
        for (int r = 0; r < batch_rows; ++r) {
          n += RowMatches(table[q], rows + (b * batch_rows + r) * dims);
        }
        cum_all[q][b + 1] = cum_all[q][b] + n;
        cum_acked[q][b + 1] =
            cum_acked[q][b] + static_cast<int32_t>(batch_acked[b] ? n : 0);
      }
    });
  }
  auto answer_ok = [&](const Sample& smp) -> bool {
    if (smp.status != Status::kOk) return false;
    if (smp.item == count_all_item) return true;  // Checked above.
    const QueryResult& ref = reference[smp.item];
    if (smp.agg != smp.matched) return false;
    if (!mixed) return smp.agg == ref.agg;
    const int64_t lo =
        ref.agg + cum_acked[smp.item][std::min<size_t>(
                      batches, static_cast<size_t>(smp.inserts_done_at_send))];
    const int64_t hi =
        ref.agg + cum_all[smp.item][std::min<size_t>(
                      batches, static_cast<size_t>(smp.inserts_sent_at_recv))];
    return lo <= smp.agg && smp.agg <= hi;
  };
  int64_t attempted = 2;  // The two end-of-run row checks.
  int64_t failed = final_failures;
  int64_t wrong = 0;
  int64_t refused = 0;
  std::map<std::string, int64_t> error_kinds;
  for (const auto& s : streams) {
    for (const Sample& smp : s->samples) {
      ++attempted;
      if (smp.status == Status::kErrorFrame) {
        ++error_kinds[net::ToString(smp.error)];
      }
      if (s->kind == Kind::kInsert) {
        if (smp.status != Status::kOk || smp.agg != batch_rows) ++failed;
        if (smp.status == Status::kErrorFrame) ++refused;
        continue;
      }
      if (smp.status == Status::kOk && !answer_ok(smp)) ++wrong;
      if (smp.status != Status::kOk) ++failed;
      if (smp.status == Status::kErrorFrame) ++refused;
    }
    if (s->broken) report.Error("a generator connection broke");
  }
  failed += wrong + replay.wrong;
  if (wrong > 0) {
    report.Error(std::to_string(wrong) + " wrong answers");
  }
  if (failed - final_failures - wrong - replay.wrong > 0) {
    report.Error(std::to_string(failed - final_failures - wrong -
                                replay.wrong) +
                 " requests failed or were refused (" +
                 std::to_string(refused) + " typed errors)");
  }
  for (const auto& [kind, n] : error_kinds) {
    report.Error(std::to_string(n) + " x " + kind);
  }
  const double error_ratio = Ratio(static_cast<double>(failed),
                                   static_cast<double>(attempted));

  // --- End-to-end metrics (from the untraced pass) ---
  const Stream* e2e_q = args.trace ? base_q : open_q;
  auto latencies_ms = [](const Stream* s, bool from_due) {
    std::vector<double> out;
    if (s == nullptr) return out;
    for (const Sample& smp : s->samples) {
      out.push_back(smp.status == Status::kOk
                        ? static_cast<double>(smp.recv_ns -
                                              (from_due ? smp.due_ns
                                                        : smp.send_ns)) *
                              1e-6
                        : std::numeric_limits<double>::infinity());
    }
    return out;
  };
  const std::vector<double> query_ms = latencies_ms(e2e_q, true);
  const std::vector<double> insert_ms = latencies_ms(open_i, true);
  // Whole-phase percentiles; a failed or refused request counts as
  // infinitely slow.
  const double query_p50 = Percentile(query_ms, 0.5);
  const double query_p95 = Percentile(query_ms, 0.95);
  const double query_p99 = Percentile(query_ms, 0.99);
  const double insert_p50 = Percentile(insert_ms, 0.5);
  const double insert_p99 = Percentile(insert_ms, 0.99);
  // Saturation: closed-loop completions over the whole phase, which ends
  // early if fresh_read's pool runs out (then at its last reply).
  int64_t sat_done = 0;
  int64_t sat_stop = closed_end;
  bool sat_exhausted = false;
  for (const Stream* s : closed) {
    sat_exhausted = sat_exhausted || s->exhausted;
  }
  if (sat_exhausted) {
    sat_stop = closed_start;
    for (const Stream* s : closed) {
      for (const Sample& smp : s->samples) {
        sat_stop = std::max(sat_stop, smp.recv_ns);
      }
    }
  }
  for (const Stream* s : closed) {
    for (const Sample& smp : s->samples) {
      if (smp.status == Status::kOk && smp.recv_ns <= sat_stop) ++sat_done;
    }
  }
  const double sat_qps =
      Ratio(static_cast<double>(sat_done),
            static_cast<double>(sat_stop - closed_start) * 1e-9);
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);

  report.Set("setup_s", Percentile(setup_seconds, 0.5), "s");
  report.Set("query_p50_ms", query_p50, "ms");
  report.Set("query_p95_ms", query_p95, "ms");
  report.Set("query_p99_ms", query_p99, "ms");
  report.Set("query_sat_qps", sat_qps, "q/s");
  report.Set("insert_p50_ms", insert_p50, "ms");
  report.Set("insert_p99_ms", insert_p99, "ms");
  report.Set("index_bytes", index_bytes, "B");
  report.Set("space_amp", (store_bytes + index_bytes) / raw_bytes, "ratio");
  report.Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
             "MiB");
  report.Set("ok_ratio", 1.0 - error_ratio, "ratio");

  // --- Per-layer metrics (from the traced pass when --trace 1) ---
  report.Set("error_ratio", error_ratio, "ratio");
  const Stream* layer_q = open_q;
  std::vector<double> lag_us, serve_us, late_ms;
  for (const Sample& smp : layer_q->samples) {
    late_ms.push_back(static_cast<double>(smp.send_ns - smp.due_ns) * 1e-6);
    if (smp.status != Status::kOk) continue;
    serve_us.push_back(smp.server_s * 1e6);
    lag_us.push_back(static_cast<double>(smp.recv_ns - smp.send_ns) * 1e-3 -
                     smp.server_s * 1e6);
  }
  report.Set("net.completion_lag_us.p50", Percentile(lag_us, 0.50), "us");
  report.Set("net.completion_lag_us.p99", Percentile(lag_us, 0.99), "us");
  report.Set("net.generator_late_ms", Percentile(late_ms, 0.99), "ms");
  const net::ServerStats& ss = final_counters.server;
  report.Set("net.bytes_per_frame",
             Ratio(static_cast<double>(ss.bytes_in + ss.bytes_out),
                   static_cast<double>(ss.frames_in + ss.frames_out)),
             "B");
  report.Set("serve.latency_us.p50", Percentile(serve_us, 0.50), "us");
  report.Set("serve.latency_us.p99", Percentile(serve_us, 0.99), "us");
  const PlanCache::Stats& c0 = open_before.service.cache;
  const PlanCache::Stats& c1 = open_after.service.cache;
  report.Set("serve.plan_cache_hit_ratio",
             Ratio(static_cast<double>(c1.hits - c0.hits),
                   static_cast<double>(c1.hits + c1.misses - c0.hits -
                                       c0.misses)),
             "ratio");
  report.Set("serve.plan_cache_stale", static_cast<double>(c1.stale - c0.stale),
             "count");
  auto rejected = [](const ServiceStats& s) {
    return s.rejected_queue_full + s.rejected_infeasible +
           s.rejected_client_busy + s.rejected_draining;
  };
  report.Set("serve.rejected",
             static_cast<double>(rejected(final_counters.service)), "count");
  const double open_completed = static_cast<double>(
      open_after.service.completed - open_before.service.completed);
  report.Set("exec.chunks_per_query",
             Ratio(static_cast<double>(open_after.service.scheduler.chunks -
                                       open_before.service.scheduler.chunks),
                   open_completed),
             "count");
  report.Set("exec.steals_per_query",
             Ratio(static_cast<double>(open_after.service.scheduler.steals -
                                       open_before.service.scheduler.steals),
                   open_completed),
             "count");
  std::map<std::string, std::vector<double>> span_us;
  for (const Span& span : tracer.spans()) {
    span_us[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
  }
  report.Set("core.prepare_us.p50", Percentile(span_us["core.prepare"], 0.5),
             "us");
  report.Set("core.prepare_us.p99", Percentile(span_us["core.prepare"], 0.99),
             "us");
  report.Set("core.prepare_calls_per_query",
             Ratio(static_cast<double>(span_us["core.prepare"].size()),
                   static_cast<double>(span_us["client.query"].size())),
             "count");
  report.Set("core.optimize_s", index_stats.optimize_seconds, "s");
  report.Set("core.sort_s", index_stats.sort_seconds, "s");
  report.Set("core.cells", static_cast<double>(index_stats.total_cells),
             "count");
  report.Set("core.regions", static_cast<double>(index_stats.num_regions),
             "count");
  const double replay_queries = static_cast<double>(replay.per_query_us.size());
  report.Set("storage.scanned_per_matched",
             Ratio(static_cast<double>(replay.scanned),
                   static_cast<double>(replay.matched)),
             "ratio");
  report.Set("storage.cell_ranges_per_query",
             Ratio(static_cast<double>(replay.cell_ranges), replay_queries),
             "count");
  report.Set("storage.scan_us.p50", Percentile(replay.per_query_us, 0.5),
             "us");
  report.Set("storage.scan_rows_per_s",
             Ratio(static_cast<double>(replay.scanned), replay.scan_seconds),
             "rows/s");
  report.Set("storage.memcpy_fraction",
             Ratio(Ratio(replay.filtered_bytes, replay.scan_seconds),
                   memcpy_bps),
             "ratio");
  report.Set("storage.memcpy_gb_s", memcpy_bps * 1e-9, "GB/s");
  const ingest::IngestStore::Stats& g0 = window_begin.ingest;
  const ingest::IngestStore::Stats& g1 = window_end.ingest;
  report.Set("ingest.delta_rows.mean", Mean(delta_rows), "rows");
  report.Set("ingest.chunk_rolls",
             static_cast<double>(g1.chunk_rolls - g0.chunk_rolls), "count");
  report.Set("ingest.folds",
             static_cast<double>(g1.compactions - g0.compactions), "count");
  report.Set("ingest.rows_folded",
             static_cast<double>(g1.store_rows - g0.store_rows), "rows");
  report.Set("net.insert_sink_us.p50",
             Percentile(span_us["net.insert_sink"], 0.5), "us");
  report.Set("net.insert_sink_us.p99",
             Percentile(span_us["net.insert_sink"], 0.99), "us");
  report.Set("durability.insert_batch_us.p50",
             Percentile(span_us["durability.insert_batch"], 0.5), "us");
  report.Set("durability.insert_batch_us.p99",
             Percentile(span_us["durability.insert_batch"], 0.99), "us");
  const durability::DurableIngestStore::Stats& d0 = window_begin.durable;
  const durability::DurableIngestStore::Stats& d1 = final_counters.durable;
  report.Set("durability.acks_per_fsync",
             Ratio(static_cast<double>(d1.durable_acks - d0.durable_acks),
                   static_cast<double>(d1.wal.group_commits -
                                       d0.wal.group_commits)),
             "ratio");
  report.Set("durability.wal_bytes_per_user_byte",
             Ratio(static_cast<double>(d1.wal.bytes_written -
                                       d0.wal.bytes_written),
                   static_cast<double>(d1.rows_logged - d0.rows_logged) *
                       dims * 8.0),
             "ratio");
  report.Set("durability.checkpoints",
             static_cast<double>(d1.checkpoints - d0.checkpoints), "count");
  std::vector<double> base_ms;
  if (base_q != nullptr) base_ms = latencies_ms(base_q, true);
  const std::vector<double> traced_ms = latencies_ms(open_q, true);
  report.Set("trace.overhead_p50_pct",
             base_q == nullptr
                 ? 0.0
                 : 100.0 * (Percentile(traced_ms, 0.5) /
                                Percentile(base_ms, 0.5) -
                            1.0),
             "%");

  // --- Stamps ---
  report.Stamp("workload", args.workload);
  report.Stamp("seed", static_cast<double>(args.seed));
  report.Stamp("data_seed", static_cast<double>(kDataSeed));
  report.Stamp("git_rev", args.git_rev);
  report.Stamp("build_type", PERFBENCH_BUILD_TYPE);
  report.Stamp("simd_tier", SimdTierName(DetectSimdTier()));
  report.Stamp("nproc", nproc);
  report.Stamp("service_threads", threads);
  report.Stamp("rows", static_cast<double>(args.scale.rows));
  report.Stamp("run_seconds", args.seconds);
  report.Stamp("open_loop_seconds", open_pass_s);
  report.Stamp("closed_loop_seconds", closed_s);
  report.Stamp("offered_query_rate_qps", args.scale.query_rate);
  report.Stamp("offered_insert_rows_per_s", mixed ? kInsertRowsPerSecond : 0);
  report.Stamp("insert_batch_rows", batch_rows);
  report.Stamp("pipeline_depth", kSatInflight);
  report.Stamp("closed_loop_connections", static_cast<double>(closed.size()));
  report.Stamp("flush_policy", mixed ? kFlushPolicy : "none (in-memory store)");
  report.Stamp("query_latency_samples", static_cast<double>(query_ms.size()));
  report.Stamp("insert_latency_samples", static_cast<double>(insert_ms.size()));
  report.Stamp("latency_method",
               "percentiles over the whole open-loop phase, timed from each "
               "request's due time; failed or refused requests count as "
               "infinite");
  report.Stamp("saturation_method",
               "closed-loop completions / closed-loop seconds");
  report.Stamp("saturation_completions", static_cast<double>(sat_done));
  report.Stamp("saturation_pool_exhausted", sat_exhausted ? 1.0 : 0.0);
  report.Stamp("space_amp_base",
               "raw user bytes = rows x dims x 8, after setup");
  report.Stamp("memcpy_fraction_base",
               "8 B x filtered columns x rows scanned, single-thread replay");
  report.Stamp("replay_queries", replay_queries);
  report.Stamp("store_rows_end", static_cast<double>(stack->store->rows()));
  report.Stamp("acked_insert_rows", static_cast<double>(acked_rows));
  report.Stamp("wrong_answers", static_cast<double>(wrong));
  report.Stamp("refused", static_cast<double>(refused));
  std::string setups;
  for (double s : setup_seconds) {
    setups += (setups.empty() ? "" : " ") + std::to_string(s);
  }
  report.Stamp("setup_seconds_each", setups);

  stack->Stop();
  for (const auto& s : streams) {
    if (s->fd >= 0) ::close(s->fd);
  }
  if (args.trace && !args.trace_out.empty() &&
      !tracer.WriteJsonLines(args.trace_out)) {
    report.Error("could not write " + args.trace_out);
  }

  std::printf("perfbench %s seed=%llu trace=%d: %lld attempted, %lld failed\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, static_cast<long long>(attempted),
              static_cast<long long>(failed));
  report.Print();
  if (!report.Write(args.result_path, attempted, failed)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.result_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_e2e --workload hot_read|fresh_read|"
                 "durable_mixed --seed N --seconds S --trace 0|1 --result "
                 "PATH [...]\n");
    return 2;
  }
  return perfbench::Run(args);
}
