// The scan kernel's one selector (SimdTier) and its runtime CPU dispatch.
// Only the per-tier translation units get arch flags (-mavx2 / -mavx512f;
// see CMakeLists.txt), so the binary holds every tier its architecture can
// compile, and the tier used is chosen once at startup from CPUID (NEON is
// baseline on aarch64). Forcing an unavailable tier via ScanOptions::tier
// falls back to the portable scalar ops, never to illegal instructions;
// TSUNAMI_FORCE_SCALAR in the environment pins kAuto to those ops.
#ifndef TSUNAMI_STORAGE_SIMD_DISPATCH_H_
#define TSUNAMI_STORAGE_SIMD_DISPATCH_H_

namespace tsunami {

struct SimdOps;

/// The scan selector: the row-at-a-time reference loop, or the block kernel
/// at one instruction-set tier. All produce bit-identical results.
enum class SimdTier {
  kAuto,       // Resolve to DetectSimdTier() at the call site.
  kReference,  // Row-at-a-time loop with early exit: the tests' reference.
  kNone,       // Block kernel, portable scalar-branchless loops.
  kNeon,       // 128-bit ARM NEON: 2 x int64 lanes.
  kAvx2,       // 256-bit x86: 4 x int64 lanes, movemask + shuffle compress.
  kAvx512,     // 512-bit x86: 8 x int64 lanes, native mask compress-store.
};

const char* SimdTierName(SimdTier tier);

/// True when `tier` was both compiled into this binary and is supported by
/// the CPU we are running on; always true for kAuto, kReference and kNone.
bool SimdTierSupported(SimdTier tier);

/// Best supported block-kernel tier on this machine (cached after the first
/// call); never kReference. Returns kNone when no SIMD tier was compiled in
/// for this architecture, the CPU has no supported extension, or the
/// TSUNAMI_FORCE_SCALAR environment variable is set non-empty/non-zero.
SimdTier DetectSimdTier();

/// The inner-loop implementations for `tier`: the scalar ops for kReference,
/// kNone and any unsupported tier, so the result is always safe to call.
const SimdOps& OpsForTier(SimdTier tier);

}  // namespace tsunami

#endif  // TSUNAMI_STORAGE_SIMD_DISPATCH_H_
