// The scan kernel's SIMD seam: every data-parallel inner loop the kernel
// runs (predicate compare+compress into the selection vector, selection-
// driven aggregation tails, contiguous-run folds, zone-map block stats) is
// reached through this table of function pointers, so one kernel body
// serves every instruction-set tier. Each tier lives in its own
// translation unit compiled with that tier's arch flags; a tier whose
// architecture the build does not target exposes a null accessor and the
// dispatcher falls back to the scalar table (OpsForTier(SimdTier::kNone)).
//
// Every implementation must be bit-for-bit equivalent to the scalar table:
// int64 addition is associative modulo 2^64 and min/max are associative,
// so lane-parallel partials reduce to identical results in any order.
#ifndef TSUNAMI_STORAGE_SCAN_KERNEL_SIMD_H_
#define TSUNAMI_STORAGE_SCAN_KERNEL_SIMD_H_

#include <cstdint>

#include "src/common/types.h"

namespace tsunami {

/// Inner-loop implementations for one instruction-set tier. All `col`
/// pointers are unaligned; `n == 0` is legal everywhere except the
/// min/max/block entry points, which require at least one row. A
/// count-sized `sel` buffer suffices everywhere: every tier's compress
/// writes at indices bounded by its read cursor, so stores never pass
/// the end (the AVX2 full-vector store's garbage lanes land strictly
/// below `count` and are overwritten or never exposed).
struct SimdOps {
  const char* name;

  /// Writes the i in [0, count) with lo <= col[i] <= hi into sel (ascending)
  /// and returns how many.
  int (*first_pass)(const Value* col, int count, Value lo, Value hi,
                    uint32_t* sel);

  /// Compacts sel[0, n) in place, keeping the i with lo <= col[i] <= hi
  /// (order preserved); returns the surviving count.
  int (*refine_pass)(const Value* col, uint32_t* sel, int n, Value lo,
                     Value hi);

  /// Width-parameterized variants of the two predicate passes over
  /// FOR-encoded code arrays (see encoded_column.h): same contract as
  /// first_pass / refine_pass but the column is uint8/16/32 codes and the
  /// bounds are unsigned, already translated into code space
  /// (TranslateToCodeSpace) with lo <= hi. Narrower lanes pack 2-8x more
  /// values per vector, which is the whole point of encoded execution.
  int (*first_pass_u8)(const uint8_t* codes, int count, uint8_t lo,
                       uint8_t hi, uint32_t* sel);
  int (*first_pass_u16)(const uint16_t* codes, int count, uint16_t lo,
                        uint16_t hi, uint32_t* sel);
  int (*first_pass_u32)(const uint32_t* codes, int count, uint32_t lo,
                        uint32_t hi, uint32_t* sel);
  int (*refine_pass_u8)(const uint8_t* codes, uint32_t* sel, int n,
                        uint8_t lo, uint8_t hi);
  int (*refine_pass_u16)(const uint16_t* codes, uint32_t* sel, int n,
                         uint16_t lo, uint16_t hi);
  int (*refine_pass_u32)(const uint32_t* codes, uint32_t* sel, int n,
                         uint32_t lo, uint32_t hi);

  /// Aggregates col[sel[j]] over j in [0, n). min/max require n >= 1.
  int64_t (*sum_gather)(const Value* col, const uint32_t* sel, int n);
  Value (*min_gather)(const Value* col, const uint32_t* sel, int n);
  Value (*max_gather)(const Value* col, const uint32_t* sel, int n);

  /// Aggregates the contiguous run col[0, n). min/max require n >= 1.
  int64_t (*sum_range)(const Value* col, int64_t n);
  Value (*min_range)(const Value* col, int64_t n);
  Value (*max_range)(const Value* col, int64_t n);

  /// One-pass min/max/sum over col[0, n) for ZoneMaps::Build; n >= 1.
  void (*block_stats)(const Value* col, int64_t n, Value* mn, Value* mx,
                      int64_t* sum);
};

/// The individual scalar loops behind OpsForTier(SimdTier::kNone), exposed
/// so per-tier tables can point at them for passes they do not accelerate
/// (e.g. NEON's gathered passes) instead of keeping drift-prone copies.
namespace scalar_ops {
int FirstPass(const Value* col, int count, Value lo, Value hi, uint32_t* sel);
int RefinePass(const Value* col, uint32_t* sel, int n, Value lo, Value hi);
int FirstPassU8(const uint8_t* codes, int count, uint8_t lo, uint8_t hi,
                uint32_t* sel);
int FirstPassU16(const uint16_t* codes, int count, uint16_t lo, uint16_t hi,
                 uint32_t* sel);
int FirstPassU32(const uint32_t* codes, int count, uint32_t lo, uint32_t hi,
                 uint32_t* sel);
int RefinePassU8(const uint8_t* codes, uint32_t* sel, int n, uint8_t lo,
                 uint8_t hi);
int RefinePassU16(const uint16_t* codes, uint32_t* sel, int n, uint16_t lo,
                  uint16_t hi);
int RefinePassU32(const uint32_t* codes, uint32_t* sel, int n, uint32_t lo,
                  uint32_t hi);
int64_t SumGather(const Value* col, const uint32_t* sel, int n);
Value MinGather(const Value* col, const uint32_t* sel, int n);
Value MaxGather(const Value* col, const uint32_t* sel, int n);
int64_t SumRange(const Value* col, int64_t n);
Value MinRange(const Value* col, int64_t n);
Value MaxRange(const Value* col, int64_t n);
void BlockStats(const Value* col, int64_t n, Value* mn, Value* mx,
                int64_t* sum);
}  // namespace scalar_ops

/// Per-tier tables; null when the tier was not compiled into this binary.
/// Callers must additionally check CPU support (SimdTierSupported) before
/// using a non-null x86 table.
const SimdOps* Avx2SimdOps();
const SimdOps* Avx512SimdOps();
const SimdOps* NeonSimdOps();

}  // namespace tsunami

#endif  // TSUNAMI_STORAGE_SCAN_KERNEL_SIMD_H_
