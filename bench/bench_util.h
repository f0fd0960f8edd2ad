// Shared helpers for the paper-reproduction bench binaries: index
// construction (with page-size tuning for the non-learned baselines, §6.3),
// workload timing, and table printing.
#ifndef TSUNAMI_BENCH_BENCH_UTIL_H_
#define TSUNAMI_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/baselines/kdtree.h"
#include "src/baselines/octree.h"
#include "src/baselines/single_dim.h"
#include "src/baselines/zorder.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/core/cost_model.h"
#include "src/core/tsunami.h"
#include "src/datasets/datasets.h"
#include "src/exec/task_scheduler.h"
#include "src/flood/flood.h"
#include "src/storage/simd_dispatch.h"

namespace tsunami {
namespace bench {

inline AgdOptions BenchAgd() {
  AgdOptions agd;
  agd.max_sample_points = 2048;
  agd.max_sample_queries = 64;
  agd.max_iters = 3;
  agd.max_cells = 1 << 18;
  // Calibrate the cost-model weights once per process so the optimizer
  // trades lookups vs scans at this machine's actual costs.
  static const CostWeights kCalibrated = CalibrateCostWeights();
  agd.weights = kCalibrated;
  return agd;
}

/// Tsunami options scaled to the dataset: at laptop scale the per-region
/// query overhead is proportionally larger than at the paper's 200M+ rows,
/// so the region budget grows with the row count.
inline TsunamiOptions BenchTsunami(int64_t rows = 200000) {
  TsunamiOptions options;
  options.agd = BenchAgd();
  options.sample_rows = 100000;
  options.tree.max_regions = static_cast<int>(
      std::clamp<int64_t>(rows / 25000, 4, 40));
  return options;
}

struct BuiltIndex {
  std::string name;
  std::unique_ptr<MultiDimIndex> index;
  double build_seconds = 0.0;
};

/// Average wall-clock nanoseconds per query over the workload.
inline double MeasureAvgQueryNanos(const MultiDimIndex& index,
                                   const Workload& workload,
                                   int repeats = 1) {
  if (workload.empty()) return 0.0;
  int64_t sink = 0;
  Timer timer;
  for (int rep = 0; rep < repeats; ++rep) {
    for (const Query& q : workload) sink += index.Execute(q).agg;
  }
  double total = static_cast<double>(timer.ElapsedNanos());
  if (sink < 0) std::fprintf(stderr, "impossible\n");
  return total / (static_cast<double>(workload.size()) * repeats);
}

inline double ThroughputQps(double avg_nanos) {
  return avg_nanos > 0 ? 1e9 / avg_nanos : 0.0;
}

/// Average wall-clock nanoseconds per query driving the workload through
/// the batch API: one ExecuteBatch submission per repeat, sharing `ctx`'s
/// scheduler and scan options.
inline double MeasureAvgQueryNanosBatch(const MultiDimIndex& index,
                                        const Workload& workload,
                                        ExecContext& ctx, int repeats = 1) {
  if (workload.empty()) return 0.0;
  int64_t sink = 0;
  Timer timer;
  for (int rep = 0; rep < repeats; ++rep) {
    std::vector<QueryResult> results = index.ExecuteBatch(
        std::span<const Query>(workload.data(), workload.size()), ctx);
    for (const QueryResult& r : results) sink += r.agg;
  }
  double total = static_cast<double>(timer.ElapsedNanos());
  if (sink == INT64_MIN) std::fprintf(stderr, "impossible\n");
  return total / (static_cast<double>(workload.size()) * repeats);
}


/// Picks the page size for a page-based baseline with the lowest predicted
/// workload cost — the "optimally tuned" treatment the paper gives the
/// non-learned indexes (§6.3). Each workload query's `Prepare`d plan is
/// priced with the §5.3.1 cost model at its default weights, so the choice
/// (and so the figures' layouts) repeats exactly from run to run.
template <typename BuildFn>
std::unique_ptr<MultiDimIndex> TunePageSize(const Workload& workload,
                                            const BuildFn& build) {
  std::unique_ptr<MultiDimIndex> best;
  double best_nanos = 0.0;
  for (int64_t page_size : {1024, 4096, 16384}) {
    std::unique_ptr<MultiDimIndex> candidate = build(page_size);
    double nanos = 0.0;
    for (const Query& q : workload) {
      nanos += PredictPlanNanos(candidate->Prepare(q), CostWeights{});
    }
    if (best == nullptr || nanos < best_nanos) {
      best = std::move(candidate);
      best_nanos = nanos;
    }
  }
  return best;
}

/// Builds the full index roster of §6.1 for one benchmark.
inline std::vector<BuiltIndex> BuildAllIndexes(const Benchmark& bench,
                                               bool include_full_scan = true) {
  std::vector<BuiltIndex> built;
  auto add = [&](std::unique_ptr<MultiDimIndex> index, double seconds) {
    built.push_back(BuiltIndex{index->Name(), std::move(index), seconds});
  };
  Timer timer;
  if (include_full_scan) {
    timer.Reset();
    add(std::make_unique<FullScanIndex>(bench.data), timer.ElapsedSeconds());
  }
  timer.Reset();
  add(std::make_unique<SingleDimIndex>(bench.data, bench.workload),
      timer.ElapsedSeconds());
  timer.Reset();
  add(TunePageSize(bench.workload,
                   [&](int64_t page_size) -> std::unique_ptr<MultiDimIndex> {
                     ZOrderIndex::Options options;
                     options.page_size = page_size;
                     return std::make_unique<ZOrderIndex>(bench.data, options);
                   }),
      timer.ElapsedSeconds());
  timer.Reset();
  add(TunePageSize(bench.workload,
                   [&](int64_t page_size) -> std::unique_ptr<MultiDimIndex> {
                     HyperOctree::Options options;
                     options.page_size = page_size;
                     return std::make_unique<HyperOctree>(bench.data, options);
                   }),
      timer.ElapsedSeconds());
  timer.Reset();
  add(TunePageSize(bench.workload,
                   [&](int64_t page_size) -> std::unique_ptr<MultiDimIndex> {
                     KdTree::Options options;
                     options.page_size = page_size;
                     return std::make_unique<KdTree>(bench.data,
                                                     bench.workload, options);
                   }),
      timer.ElapsedSeconds());
  timer.Reset();
  {
    FloodOptions options;
    options.agd = BenchAgd();
    add(std::make_unique<FloodIndex>(bench.data, bench.workload, options),
        timer.ElapsedSeconds());
  }
  timer.Reset();
  add(std::make_unique<TsunamiIndex>(bench.data, bench.workload,
                                     BenchTsunami(bench.data.size())),
      timer.ElapsedSeconds());
  return built;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Minimal JSON record builder for BENCH_*.json artifacts: an ordered flat
/// object of numeric / string fields. No escaping beyond quoting — bench
/// keys and names are plain identifiers.
class JsonRecord {
 public:
  JsonRecord& Num(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    return Raw(key, buffer);
  }
  JsonRecord& Int(const std::string& key, int64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonRecord& Str(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + value + "\"");
  }
  std::string Finish() const { return "{" + body_ + "}"; }

 private:
  JsonRecord& Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + key + "\": " + value;
    return *this;
  }
  std::string body_;
};

/// The git revision the benchmark binary is running against, resolved once
/// per process ("unknown" outside a work tree / without git). A perf row
/// that cannot be tied back to a commit is unactionable in a regression
/// hunt.
inline const std::string& GitRevision() {
  static const std::string revision = [] {
    std::string out = "unknown";
    if (std::FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
      char buffer[64];
      if (std::fgets(buffer, sizeof(buffer), p) != nullptr) {
        std::string line(buffer);
        while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
          line.pop_back();
        }
        if (!line.empty()) out = line;
      }
      ::pclose(p);
    }
    return out;
  }();
  return revision;
}

/// Compile-time build configuration: numbers from a debug, sanitized, or
/// fault-injected binary must never be compared against release numbers.
inline const char* BuildConfig() {
  return
#if !defined(NDEBUG)
      "debug"
#else
      "release"
#endif
#if defined(TSUNAMI_FAULT_INJECTION)
      "+fi"
#endif
#if defined(__SANITIZE_ADDRESS__)
      "+asan"
#elif defined(__SANITIZE_THREAD__)
      "+tsan"
#endif
      ;
}

/// A BENCH_*.json record pre-stamped with the execution environment every
/// perf record needs to stay attributable across machines and configs: the
/// active SIMD tier, the thread count, the batch size the measurement used
/// (1 = per-query dispatch), and the provenance pair (git revision, build
/// config) that makes the row reproducible after the fact. Benches with a
/// synthetic workload also stamp their generator seed via `rng_seed`.
inline JsonRecord EnvRecord(const std::string& shape,
                            const std::string& simd_tier, int threads,
                            int64_t batch_size) {
  JsonRecord record;
  record.Str("shape", shape)
      .Str("simd_tier", simd_tier)
      .Int("threads", threads)
      .Int("batch_size", batch_size)
      .Str("git_revision", GitRevision())
      .Str("build_config", BuildConfig());
  return record;
}

/// Writes `{"bench": <name>, "results": [records...]}` to `path`.
inline bool WriteBenchJson(const std::string& path, const std::string& name,
                           const std::vector<std::string>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [\n",
               name.c_str());
  for (size_t i = 0; i < records.size(); ++i) {
    std::fprintf(f, "    %s%s\n", records[i].c_str(),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace bench
}  // namespace tsunami

#endif  // TSUNAMI_BENCH_BENCH_UTIL_H_
