// Deterministic fault-injection registry (the robustness test harness).
//
// Production code marks *fault sites* with TSUNAMI_FAULT_FIRES("name", arg):
// the scheduler's task dispatch ("sched.task_throw", "sched.stall"), the
// encoded-column checksum verifier ("storage.checksum"), the framed-file
// reader ("io.short_read"), the network front end's socket paths
// ("net.accept_fail", "net.short_write", "net.reset", "net.partial_frame"),
// the ingest store's compaction/publish paths ("ingest.compact_throw",
// "ingest.swap_delay", "ingest.fold_window" — a fold parks after its
// snapshot capture until param more chunk rolls land), the durability
// layer ("wal.torn_write" — the group commit writes only a prefix, param =
// bytes kept; "wal.fsync_fail" —
// fsync reports failure and the log fails closed; and
// "durability.checkpoint_throw" — the fold checkpoint aborts, the WAL
// retains everything), and the resource-pressure layer ("fs.enospc" — a
// filesystem write path reports ENOSPC, with match_arg selecting the call
// site: 0 = wal.write, 1 = wal.fsync, 2 = checkpoint.rename, 3 =
// manifest.write; "gov.mem_pressure" — ResourceGovernor::TryCharge rejects
// as if over budget, arg = pool index; and "scrub.corrupt_block" — the
// integrity scrubber sees a checksum mismatch on the matching block, arg =
// block index).
// Tests and the examples' soak mode arm a site
// with a FaultSpec — a seeded fire probability plus match/skip/limit
// filters — and the site then fires deterministically: the decision for the
// k-th matching hit depends only on (seed, k), never on wall clock, thread
// interleaving, or address-space layout, so a failing run replays exactly.
//
// The registry is compiled in only under -DTSUNAMI_FAULT_INJECTION=ON
// (scripts/ci.sh arms it for the TSan and ASan/UBSan passes). In normal
// builds TSUNAMI_FAULT_FIRES expands to a constant `false` and every site
// folds away to nothing — zero cost, zero symbols.
#ifndef TSUNAMI_COMMON_FAULT_INJECTION_H_
#define TSUNAMI_COMMON_FAULT_INJECTION_H_

#if defined(TSUNAMI_FAULT_INJECTION)

#include <cstdint>
#include <string_view>

namespace tsunami {
namespace fault {

/// Configuration for one armed fault site. All filters compose: a hit must
/// match `match_arg`, survive `skip_hits`, stay under `max_fires`, and win
/// the seeded coin flip to fire.
struct FaultSpec {
  /// Chance that a matching hit fires, decided by a hash of (seed, hit
  /// index) — deterministic for a fixed seed regardless of threading.
  double probability = 1.0;
  uint64_t seed = 0;
  /// Fire only when the site's argument equals this; -1 matches any.
  int64_t match_arg = -1;
  /// Ignore the first N matching hits (lets a test corrupt "the 3rd block
  /// touched" without knowing which block that is).
  int64_t skip_hits = 0;
  /// Stop firing after N fires; -1 = unlimited.
  int64_t max_fires = -1;
  /// Site-interpreted payload carried with the armed spec, readable at the
  /// site via Param(). E.g. "io.short_read" treats it as the exact byte
  /// offset to truncate at (so a test can cut a file at every section
  /// boundary); -1 = unset, the site uses its default behaviour.
  int64_t param = -1;
};

/// Arms `site` with `spec` (replacing any previous spec and resetting its
/// hit/fire counters). Thread-safe; typically called from test setup.
void Arm(std::string_view site, const FaultSpec& spec);

/// Disarms one site / every site. DisarmAll() belongs in test teardown so
/// suites cannot leak faults into each other.
void Disarm(std::string_view site);
void DisarmAll();

/// The site hook: true when `site` is armed and this hit fires. `arg` is
/// the site-specific discriminator (block index, chunk index, byte count).
bool Fires(std::string_view site, int64_t arg);

/// Times `site` has fired since it was last armed (0 when not armed).
int64_t FireCount(std::string_view site);

/// The armed spec's `param` for `site` (-1 when not armed or unset). Sites
/// read it *after* Fires() returns true to shape the injected fault.
int64_t Param(std::string_view site);

}  // namespace fault
}  // namespace tsunami

#define TSUNAMI_FAULT_FIRES(site, arg) \
  ::tsunami::fault::Fires((site), static_cast<int64_t>(arg))

#else  // !TSUNAMI_FAULT_INJECTION

#include <cstdint>
#include <string_view>

namespace tsunami {
namespace fault {

/// Compiled-out stub so `if (TSUNAMI_FAULT_FIRES(...)) { ... Param(...) }`
/// bodies still parse; the enclosing constant-false branch folds away.
inline int64_t Param(std::string_view) { return -1; }

}  // namespace fault
}  // namespace tsunami

// Fault injection compiled out: sites are a constant false (the argument
// expressions are not evaluated), so the branches fold away entirely.
#define TSUNAMI_FAULT_FIRES(site, arg) false

#endif  // TSUNAMI_FAULT_INJECTION

#endif  // TSUNAMI_COMMON_FAULT_INJECTION_H_
