#include "src/storage/scan_kernel.h"

#include <algorithm>

#include "src/storage/scan_kernel_simd.h"

namespace tsunami {

namespace {

// ---- Aggregation over one block's codes -----------------------------------
//
// The compare+compress passes run on codes; only the surviving rows are
// materialized, and for narrow blocks materialization is a single
// frame-of-reference add folded into the accumulator algebraically:
// sum(ref + c_j) = n * ref + sum(c_j) (exact modulo 2^64, the same ring the
// scalar kernel accumulates in), min(ref + c_j) = ref + min(c_j) (exact —
// it reconstructs an original value), likewise max. Raw fallback blocks
// gather values directly through the tier's SIMD ops.

template <typename T>
int64_t SumCodesGather(const T* codes, Value ref, const uint32_t* sel,
                       int n) {
  uint64_t s = 0;
  for (int j = 0; j < n; ++j) s += codes[sel[j]];
  return static_cast<int64_t>(
      s + static_cast<uint64_t>(ref) * static_cast<uint64_t>(n));
}

template <typename T>
Value MinCodesGather(const T* codes, Value ref, const uint32_t* sel, int n) {
  T m = codes[sel[0]];
  for (int j = 1; j < n; ++j) m = codes[sel[j]] < m ? codes[sel[j]] : m;
  return static_cast<Value>(static_cast<uint64_t>(ref) + m);
}

template <typename T>
Value MaxCodesGather(const T* codes, Value ref, const uint32_t* sel, int n) {
  T m = codes[sel[0]];
  for (int j = 1; j < n; ++j) m = codes[sel[j]] > m ? codes[sel[j]] : m;
  return static_cast<Value>(static_cast<uint64_t>(ref) + m);
}

template <typename T>
int64_t SumCodesRange(const T* codes, Value ref, int64_t n) {
  uint64_t s = 0;
  for (int64_t i = 0; i < n; ++i) s += codes[i];
  return static_cast<int64_t>(s + static_cast<uint64_t>(ref) *
                                      static_cast<uint64_t>(n));
}

template <typename T>
Value MinCodesRange(const T* codes, Value ref, int64_t n) {
  T m = codes[0];
  for (int64_t i = 1; i < n; ++i) m = codes[i] < m ? codes[i] : m;
  return static_cast<Value>(static_cast<uint64_t>(ref) + m);
}

template <typename T>
Value MaxCodesRange(const T* codes, Value ref, int64_t n) {
  T m = codes[0];
  for (int64_t i = 1; i < n; ++i) m = codes[i] > m ? codes[i] : m;
  return static_cast<Value>(static_cast<uint64_t>(ref) + m);
}

// Width dispatchers: `view` is the block, `off` the first row's offset
// inside it. n >= 1 for min/max.

int64_t GatherSum(const EncodedColumn::BlockView& view, int64_t off,
                  const SimdOps& ops, const uint32_t* sel, int n) {
  switch (view.width) {
    case 1:
      return SumCodesGather(static_cast<const uint8_t*>(view.codes) + off,
                            view.ref, sel, n);
    case 2:
      return SumCodesGather(static_cast<const uint16_t*>(view.codes) + off,
                            view.ref, sel, n);
    case 4:
      return SumCodesGather(static_cast<const uint32_t*>(view.codes) + off,
                            view.ref, sel, n);
    default:
      return ops.sum_gather(static_cast<const Value*>(view.codes) + off, sel,
                            n);
  }
}

Value GatherMin(const EncodedColumn::BlockView& view, int64_t off,
                const SimdOps& ops, const uint32_t* sel, int n) {
  switch (view.width) {
    case 1:
      return MinCodesGather(static_cast<const uint8_t*>(view.codes) + off,
                            view.ref, sel, n);
    case 2:
      return MinCodesGather(static_cast<const uint16_t*>(view.codes) + off,
                            view.ref, sel, n);
    case 4:
      return MinCodesGather(static_cast<const uint32_t*>(view.codes) + off,
                            view.ref, sel, n);
    default:
      return ops.min_gather(static_cast<const Value*>(view.codes) + off, sel,
                            n);
  }
}

Value GatherMax(const EncodedColumn::BlockView& view, int64_t off,
                const SimdOps& ops, const uint32_t* sel, int n) {
  switch (view.width) {
    case 1:
      return MaxCodesGather(static_cast<const uint8_t*>(view.codes) + off,
                            view.ref, sel, n);
    case 2:
      return MaxCodesGather(static_cast<const uint16_t*>(view.codes) + off,
                            view.ref, sel, n);
    case 4:
      return MaxCodesGather(static_cast<const uint32_t*>(view.codes) + off,
                            view.ref, sel, n);
    default:
      return ops.max_gather(static_cast<const Value*>(view.codes) + off, sel,
                            n);
  }
}

int64_t RangeSum(const EncodedColumn::BlockView& view, int64_t off,
                 const SimdOps& ops, int64_t n) {
  switch (view.width) {
    case 1:
      return SumCodesRange(static_cast<const uint8_t*>(view.codes) + off,
                           view.ref, n);
    case 2:
      return SumCodesRange(static_cast<const uint16_t*>(view.codes) + off,
                           view.ref, n);
    case 4:
      return SumCodesRange(static_cast<const uint32_t*>(view.codes) + off,
                           view.ref, n);
    default:
      return ops.sum_range(static_cast<const Value*>(view.codes) + off, n);
  }
}

Value RangeMin(const EncodedColumn::BlockView& view, int64_t off,
               const SimdOps& ops, int64_t n) {
  switch (view.width) {
    case 1:
      return MinCodesRange(static_cast<const uint8_t*>(view.codes) + off,
                           view.ref, n);
    case 2:
      return MinCodesRange(static_cast<const uint16_t*>(view.codes) + off,
                           view.ref, n);
    case 4:
      return MinCodesRange(static_cast<const uint32_t*>(view.codes) + off,
                           view.ref, n);
    default:
      return ops.min_range(static_cast<const Value*>(view.codes) + off, n);
  }
}

Value RangeMax(const EncodedColumn::BlockView& view, int64_t off,
               const SimdOps& ops, int64_t n) {
  switch (view.width) {
    case 1:
      return MaxCodesRange(static_cast<const uint8_t*>(view.codes) + off,
                           view.ref, n);
    case 2:
      return MaxCodesRange(static_cast<const uint16_t*>(view.codes) + off,
                           view.ref, n);
    case 4:
      return MaxCodesRange(static_cast<const uint32_t*>(view.codes) + off,
                           view.ref, n);
    default:
      return ops.max_range(static_cast<const Value*>(view.codes) + off, n);
  }
}

}  // namespace

void ZoneMaps::Build(const std::vector<std::vector<Value>>& columns) {
  Clear();
  if (columns.empty() || columns[0].empty()) return;
  const SimdOps& ops = OpsForTier(SimdTier::kAuto);
  const int dims = static_cast<int>(columns.size());
  const int64_t rows = static_cast<int64_t>(columns[0].size());
  num_blocks_ = (rows + kScanBlockRows - 1) / kScanBlockRows;
  min_.assign(dims, {});
  max_.assign(dims, {});
  sum_.assign(dims, {});
  for (int d = 0; d < dims; ++d) {
    min_[d].resize(num_blocks_);
    max_[d].resize(num_blocks_);
    sum_[d].resize(num_blocks_);
    const Value* col = columns[d].data();
    for (int64_t b = 0; b < num_blocks_; ++b) {
      int64_t lo = b * kScanBlockRows;
      int64_t hi = std::min(rows, lo + kScanBlockRows);
      ops.block_stats(col + lo, hi - lo, &min_[d][b], &max_[d][b],
                      &sum_[d][b]);
    }
  }
}

void ZoneMaps::Build(const std::vector<EncodedColumn>& columns) {
  Clear();
  if (columns.empty() || columns[0].rows() == 0) return;
  const SimdOps& ops = OpsForTier(SimdTier::kAuto);
  const int dims = static_cast<int>(columns.size());
  const int64_t rows = columns[0].rows();
  num_blocks_ = (rows + kScanBlockRows - 1) / kScanBlockRows;
  min_.assign(dims, {});
  max_.assign(dims, {});
  sum_.assign(dims, {});
  Value scratch[kScanBlockRows];
  for (int d = 0; d < dims; ++d) {
    min_[d].resize(num_blocks_);
    max_[d].resize(num_blocks_);
    sum_[d].resize(num_blocks_);
    for (int64_t b = 0; b < num_blocks_; ++b) {
      int64_t lo = b * kScanBlockRows;
      int64_t hi = std::min(rows, lo + kScanBlockRows);
      columns[d].Decode(lo, hi, scratch);
      ops.block_stats(scratch, hi - lo, &min_[d][b], &max_[d][b],
                      &sum_[d][b]);
    }
  }
}

void ZoneMaps::UpdateBlock(int dim, int64_t block, const Value* values,
                           int64_t n) {
  const SimdOps& ops = OpsForTier(SimdTier::kAuto);
  ops.block_stats(values, n, &min_[dim][block], &max_[dim][block],
                  &sum_[dim][block]);
}

void ZoneMaps::Clear() {
  num_blocks_ = 0;
  min_.clear();
  max_.clear();
  sum_.clear();
}

int64_t ZoneMaps::SizeBytes() const {
  return num_blocks_ * static_cast<int64_t>(min_.size()) *
         (2 * sizeof(Value) + sizeof(int64_t));
}

inline bool ScanKernel::BlockReadable(int64_t block, const Query& query,
                                      bool exact, QueryResult* out) const {
  const std::vector<EncodedColumn>& columns = *columns_;
  // No short-circuit: every involved column advances its lazy verification
  // even when an earlier one is already quarantined.
  bool ok = true;
  if (!exact) {
    for (const Predicate& p : query.filters) {
      ok = columns[p.dim].EnsureReadable(block) && ok;
    }
  }
  for (int a = 0; a < query.num_aggs(); ++a) {
    const AggregateSpec spec = query.agg_spec(a);
    if (spec.op != AggKind::kCount) {
      ok = columns[spec.column].EnsureReadable(block) && ok;
    }
  }
  if (!ok) {
    out->degraded = true;
    ++out->quarantined_blocks;
  }
  return ok;
}

size_t ScanKernel::ScanRows(std::span<const RangeTask> tasks,
                            const Query& query, QueryResult* out) const {
  const std::vector<EncodedColumn>& columns = *columns_;
  const int num_aggs = query.num_aggs();
  // Counters stay in locals across the run; only the aggregate
  // accumulators are written through `out`.
  int64_t scanned = 0;
  int64_t matched = 0;
  size_t i = 0;
  for (; i < tasks.size(); ++i) {
    const RangeTask& task = tasks[i];
    if (task.exact || task.end - task.begin != 1) break;
    const int64_t row = task.begin;
    if (!BlockReadable(row / kScanBlockRows, query, /*exact=*/false, out)) {
      continue;  // Skipped, never read: not scanned.
    }
    ++scanned;
    bool ok = true;
    for (const Predicate& p : query.filters) {
      const Value v = columns[p.dim].Get(row);
      if (v < p.lo || v > p.hi) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    ++matched;
    for (int a = 0; a < num_aggs; ++a) {
      const AggregateSpec spec = query.agg_spec(a);
      AccumulateAgg(
          spec.op,
          spec.op == AggKind::kCount ? 0 : columns[spec.column].Get(row),
          out->agg_accumulator(a));
    }
  }
  out->scanned += scanned;
  out->matched += matched;
  return i;
}

void ScanKernel::Scan(int64_t begin, int64_t end, const Query& query,
                      bool exact, QueryResult* out,
                      const ScanOptions& options) const {
  if (begin >= end) return;
  // A one-row inexact range (a secondary-index probe) has no lanes to
  // fill: the row-at-a-time path reads its filter values with early exit
  // and skips the zone triage and selection passes. Its counters and
  // aggregates are the block kernel's, as for every tier.
  if (!exact && end - begin == 1) {
    const RangeTask task{begin, end, exact};
    ScanRows({&task, 1}, query, out);
    return;
  }
  if (options.tier == SimdTier::kReference) {
    ScanScalar(begin, end, query, exact, out);
    return;
  }
  const SimdOps& ops = OpsForTier(options.tier);
  if (exact) {
    ScanExactVectorized(begin, end, query, ops, out);
  } else {
    ScanVectorized(begin, end, query, ops, out);
  }
}

void ScanKernel::ScanBatch(std::span<const RangeTask> tasks,
                           const Query& query, QueryResult* out,
                           const ScanOptions& options) const {
  if (options.stop_probe == nullptr) {
    // A run of one-row probe ranges goes through ScanRows in one call.
    for (size_t i = 0; i < tasks.size();) {
      const size_t consumed = ScanRows(tasks.subspan(i), query, out);
      if (consumed > 0) {
        i += consumed;
        continue;
      }
      Scan(tasks[i].begin, tasks[i].end, query, tasks[i].exact, out, options);
      ++i;
    }
    return;
  }
  // Cancellable batch: inside oversized tasks, scan block-aligned
  // kScanStopProbeRows slices, and probe before any slice that would take
  // the rows scanned since the last probe past kScanStopProbeRows (or the
  // slices past kStopProbeTasks), so a deadline or cancel flag lands
  // mid-scan instead of after the largest range, while a batch of one-row
  // probe ranges pays one clock read per kStopProbeTasks ranges rather
  // than one per row. The accumulation is a left-to-right fold over the
  // same rows, so an uncancelled probed batch is bit-identical to the
  // unprobed loop above.
  constexpr int64_t kStopProbeTasks = 64;
  int64_t rows_since_probe = 0;
  int64_t slices_since_probe = kStopProbeTasks;  // Probe before the first.
  for (const RangeTask& task : tasks) {
    int64_t begin = task.begin;
    while (begin < task.end) {
      int64_t end = task.end;
      if (end - begin > kScanStopProbeRows) {
        // Slice on a block boundary so full-block zone-map paths (and the
        // exact-range SUM-from-block-sums path) see whole blocks.
        end = begin + kScanStopProbeRows;
        end -= end % kScanBlockRows;
        if (end <= begin) end = std::min(task.end, begin + kScanBlockRows);
      }
      if (slices_since_probe >= kStopProbeTasks ||
          rows_since_probe + (end - begin) > kScanStopProbeRows) {
        if (options.ShouldStop()) return;
        rows_since_probe = 0;
        slices_since_probe = 0;
      }
      Scan(begin, end, query, task.exact, out, options);
      rows_since_probe += end - begin;
      ++slices_since_probe;
      begin = end;
    }
  }
}

// The pre-kernel reference path: row-at-a-time with early exit. Kept
// verbatim (modulo the multi-aggregate loop, which runs once for
// single-aggregate queries, and per-row decode through EncodedColumn::Get)
// so SimdTier::kReference A/Bs against exactly the old behavior.
void ScanKernel::ScanScalar(int64_t begin, int64_t end, const Query& query,
                            bool exact, QueryResult* out) const {
  const std::vector<EncodedColumn>& columns = *columns_;
  const int num_aggs = query.num_aggs();
  if (exact) {
    // Exact ranges skip per-value checks entirely; COUNT touches no data
    // (so it needs no integrity gate and stays exact even over a
    // quarantined store).
    const int64_t n = end - begin;
    bool touches_data = false;
    for (int a = 0; a < num_aggs; ++a) {
      touches_data = touches_data || query.agg_spec(a).op != AggKind::kCount;
    }
    if (!touches_data) {
      out->matched += n;
      for (int a = 0; a < num_aggs; ++a) *out->agg_accumulator(a) += n;
      return;
    }
    out->scanned += n;
    for (int64_t lo = begin; lo < end;) {
      const int64_t b = lo / kScanBlockRows;
      const int64_t hi = std::min(end, (b + 1) * kScanBlockRows);
      if (!BlockReadable(b, query, /*exact=*/true, out)) {
        out->scanned -= hi - lo;  // Skipped, never read: not scanned.
        lo = hi;
        continue;
      }
      const int64_t seg = hi - lo;
      out->matched += seg;
      for (int a = 0; a < num_aggs; ++a) {
        const AggregateSpec spec = query.agg_spec(a);
        int64_t* acc = out->agg_accumulator(a);
        if (spec.op == AggKind::kCount) {
          *acc += seg;
          continue;
        }
        const EncodedColumn& agg_col = columns[spec.column];
        for (int64_t r = lo; r < hi; ++r) {
          AccumulateAgg(spec.op, agg_col.Get(r), acc);
        }
      }
      lo = hi;
    }
    return;
  }
  out->scanned += end - begin;
  const std::vector<Predicate>& filters = query.filters;
  for (int64_t lo = begin; lo < end;) {
    const int64_t b = lo / kScanBlockRows;
    const int64_t hi = std::min(end, (b + 1) * kScanBlockRows);
    if (!BlockReadable(b, query, /*exact=*/false, out)) {
      out->scanned -= hi - lo;  // Skipped, never read: not scanned.
      lo = hi;
      continue;
    }
    for (int64_t r = lo; r < hi; ++r) {
      bool ok = true;
      for (const Predicate& p : filters) {
        Value v = columns[p.dim].Get(r);
        if (v < p.lo || v > p.hi) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      ++out->matched;
      for (int a = 0; a < num_aggs; ++a) {
        const AggregateSpec spec = query.agg_spec(a);
        AccumulateAgg(
            spec.op,
            spec.op == AggKind::kCount ? 0 : columns[spec.column].Get(r),
            out->agg_accumulator(a));
      }
    }
    lo = hi;
  }
}

int ScanKernel::BuildSelection(int64_t begin, int64_t end, int64_t block,
                               const std::vector<Predicate>& filters,
                               const SimdOps& ops, uint32_t* sel) const {
  const std::vector<EncodedColumn>& columns = *columns_;
  const int count = static_cast<int>(end - begin);
  const int64_t off = begin - block * kScanBlockRows;
  // First effective predicate compacts [0, count) into sel; later ones
  // compact the survivors in place. All passes are compare+compress at the
  // block's code width, lane-parallel under the SIMD tiers. n == -1 means
  // no pass has run yet (every predicate so far covered the whole block's
  // code domain).
  int n = -1;
  for (const Predicate& p : filters) {
    const EncodedColumn::BlockView view = columns[p.dim].block(block);
    if (view.width == 8) {
      // Raw fallback block: compare values directly, untranslated.
      const Value* col = static_cast<const Value*>(view.codes) + off;
      n = n < 0 ? ops.first_pass(col, count, p.lo, p.hi, sel)
                : ops.refine_pass(col, sel, n, p.lo, p.hi);
    } else {
      const CodeRange cr = TranslateToCodeSpace(p.lo, p.hi, view.ref,
                                                CodeDomainMax(view.width));
      if (cr.state == CodeRange::kEmpty) return 0;
      if (cr.state == CodeRange::kAll) continue;  // Pass is the identity.
      switch (view.width) {
        case 1: {
          const uint8_t* c = static_cast<const uint8_t*>(view.codes) + off;
          n = n < 0 ? ops.first_pass_u8(c, count, static_cast<uint8_t>(cr.lo),
                                        static_cast<uint8_t>(cr.hi), sel)
                    : ops.refine_pass_u8(c, sel, n,
                                         static_cast<uint8_t>(cr.lo),
                                         static_cast<uint8_t>(cr.hi));
          break;
        }
        case 2: {
          const uint16_t* c = static_cast<const uint16_t*>(view.codes) + off;
          n = n < 0
                  ? ops.first_pass_u16(c, count, static_cast<uint16_t>(cr.lo),
                                       static_cast<uint16_t>(cr.hi), sel)
                  : ops.refine_pass_u16(c, sel, n,
                                        static_cast<uint16_t>(cr.lo),
                                        static_cast<uint16_t>(cr.hi));
          break;
        }
        default: {
          const uint32_t* c = static_cast<const uint32_t*>(view.codes) + off;
          n = n < 0
                  ? ops.first_pass_u32(c, count, static_cast<uint32_t>(cr.lo),
                                       static_cast<uint32_t>(cr.hi), sel)
                  : ops.refine_pass_u32(c, sel, n,
                                        static_cast<uint32_t>(cr.lo),
                                        static_cast<uint32_t>(cr.hi));
          break;
        }
      }
    }
    if (n == 0) return 0;
  }
  if (n < 0) {
    // Every predicate covered the whole code domain: identity selection.
    // (With zone maps present this block would have been aggregated as
    // all-match before reaching here; kept for the no-zones path.)
    for (int i = 0; i < count; ++i) sel[i] = static_cast<uint32_t>(i);
    n = count;
  }
  return n;
}

void ScanKernel::AggregateRun(int64_t begin, int64_t end, int64_t block,
                              const Query& query, const SimdOps& ops,
                              QueryResult* out) const {
  const int num_aggs = query.num_aggs();
  if (num_aggs == 1 && query.agg_spec(0).op == AggKind::kCount) {
    out->agg += end - begin;
    return;
  }
  const bool full = !zones_->empty() && CoversBlock(begin, end, block);
  const int64_t off = begin - block * kScanBlockRows;
  for (int a = 0; a < num_aggs; ++a) {
    const AggregateSpec spec = query.agg_spec(a);
    int64_t* acc = out->agg_accumulator(a);
    if (spec.op == AggKind::kCount) {
      *acc += end - begin;
      continue;
    }
    const EncodedColumn::BlockView view =
        (*columns_)[spec.column].block(block);
    switch (spec.op) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        *acc = WrapAdd(*acc, full ? zones_->Sum(spec.column, block)
                                  : RangeSum(view, off, ops, end - begin));
        break;
      case AggKind::kMin: {
        Value m = full ? zones_->Min(spec.column, block)
                       : RangeMin(view, off, ops, end - begin);
        if (m < *acc) *acc = m;
        break;
      }
      case AggKind::kMax: {
        Value m = full ? zones_->Max(spec.column, block)
                       : RangeMax(view, off, ops, end - begin);
        if (m > *acc) *acc = m;
        break;
      }
    }
  }
}

void ScanKernel::ScanVectorized(int64_t begin, int64_t end,
                                const Query& query, const SimdOps& ops,
                                QueryResult* out) const {
  out->scanned += end - begin;
  const std::vector<Predicate>& filters = query.filters;
  const int64_t b_first = begin / kScanBlockRows;
  const int64_t b_last = (end - 1) / kScanBlockRows;
  uint32_t sel[kScanBlockRows];
  for (int64_t b = b_first; b <= b_last; ++b) {
    const int64_t lo = std::max(begin, b * kScanBlockRows);
    const int64_t hi = std::min(end, (b + 1) * kScanBlockRows);
    // Integrity gate before zone triage: a quarantined block's zone entries
    // may themselves derive from the corrupt bytes (Deserialize rebuilds
    // zones by decoding), so they cannot be trusted even to skip it.
    if (!BlockReadable(b, query, /*exact=*/false, out)) {
      out->scanned -= hi - lo;  // Skipped, never read: not scanned.
      continue;
    }
    // Zone-map triage: a block disjoint from any filter contributes
    // nothing; a block inside every filter needs no per-row checks.
    bool all_match = true;
    bool skip = false;
    if (!zones_->empty()) {
      for (const Predicate& p : filters) {
        const Value zmin = zones_->Min(p.dim, b);
        const Value zmax = zones_->Max(p.dim, b);
        if (zmin > p.hi || zmax < p.lo) {
          skip = true;
          break;
        }
        all_match = all_match && p.lo <= zmin && zmax <= p.hi;
      }
    } else {
      all_match = filters.empty();
    }
    if (skip) continue;
    if (all_match) {
      out->matched += hi - lo;
      AggregateRun(lo, hi, b, query, ops, out);
      continue;
    }
    const int n = BuildSelection(lo, hi, b, filters, ops, sel);
    if (n == 0) continue;
    out->matched += n;
    // One selection vector feeds every aggregate: the compare+compress
    // passes above run once per block regardless of how many aggregates
    // the query computes; only the gather tails repeat per aggregate.
    const int64_t off = lo - b * kScanBlockRows;
    for (int a = 0; a < query.num_aggs(); ++a) {
      const AggregateSpec spec = query.agg_spec(a);
      int64_t* acc = out->agg_accumulator(a);
      if (spec.op == AggKind::kCount) {
        *acc += n;
        continue;
      }
      const EncodedColumn::BlockView view = (*columns_)[spec.column].block(b);
      switch (spec.op) {
        case AggKind::kCount:
          break;
        case AggKind::kSum:
        case AggKind::kAvg:
          *acc = WrapAdd(*acc, GatherSum(view, off, ops, sel, n));
          break;
        case AggKind::kMin: {
          Value m = GatherMin(view, off, ops, sel, n);
          if (m < *acc) *acc = m;
          break;
        }
        case AggKind::kMax: {
          Value m = GatherMax(view, off, ops, sel, n);
          if (m > *acc) *acc = m;
          break;
        }
      }
    }
  }
}

// Exact ranges: every row matches, so only the aggregate remains. COUNT is
// arithmetic; SUM reads block sums for fully covered blocks (and only the
// ragged edges through the decode-and-fold tail); MIN/MAX read block
// extrema the same way.
void ScanKernel::ScanExactVectorized(int64_t begin, int64_t end,
                                     const Query& query, const SimdOps& ops,
                                     QueryResult* out) const {
  const int64_t n = end - begin;
  bool all_count = true;
  for (int a = 0; a < query.num_aggs(); ++a) {
    all_count = all_count && query.agg_spec(a).op == AggKind::kCount;
  }
  if (all_count) {
    // Pure counting touches no column bytes: exact even over a quarantined
    // store, so no integrity gate (matching ScanScalar's exact path).
    out->matched += n;
    for (int a = 0; a < query.num_aggs(); ++a) *out->agg_accumulator(a) += n;
    return;
  }
  out->scanned += n;
  const int64_t b_first = begin / kScanBlockRows;
  const int64_t b_last = (end - 1) / kScanBlockRows;
  for (int64_t b = b_first; b <= b_last; ++b) {
    const int64_t lo = std::max(begin, b * kScanBlockRows);
    const int64_t hi = std::min(end, (b + 1) * kScanBlockRows);
    if (!BlockReadable(b, query, /*exact=*/true, out)) {
      out->scanned -= hi - lo;  // Skipped, never read: not scanned.
      continue;
    }
    out->matched += hi - lo;
    AggregateRun(lo, hi, b, query, ops, out);
  }
}

}  // namespace tsunami
