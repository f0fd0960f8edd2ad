// Write-ahead log for the ingest path (ROADMAP "Durable ingest"): hash-framed
// row-batch records appended to segment files, committed by a dedicated
// log-writer thread doing fsync'd group commit. Writers enqueue a framed
// record and receive an LSN; the committer coalesces everything pending into
// one write+fsync and releases acks at the durable LSN, so N concurrent
// writers share one fsync instead of paying one each.
//
// Record framing within a segment (all little-endian):
//   fixed32 body_len | fixed64 XxHash64(body, kWalHashSeed) | body
// body:
//   u8 record type | zigzag-varint first_ordinal | row batch
// where the row batch is src/io's one row-batch layout (BinaryWriter::
// PutRowBatch: varint row_count | varint dims | row-major zigzag-varint
// values), byte for byte the client's kInsert payload.
//
// Hot-path encoding: a writer builds the row batch OUTSIDE the insert
// sequencer lock (it is the expensive part of framing, and nothing in it
// depends on the ordinal the batch will be assigned); inside the lock,
// FrameRowBatchPayload writes only the type byte, the ordinal, one memcpy
// and the hash header.
//
// The frame hash (not a CRC over the whole file) is what makes the tail
// torn-tolerant: a crash mid-append leaves either a partial frame
// (kTruncated: fewer bytes than the header promises) or a complete frame
// with garbage bytes (kChecksumMismatch). Replay treats both as the clean
// end of the log — records before the tear are intact because commits are
// sequential appends and an ack is only released after fsync.
//
// Fault sites (src/common/fault_injection.h):
//   wal.torn_write  — the group write stops after a prefix of the buffer
//                     (param = bytes to keep, default half) and the log
//                     fails: simulates a crash tearing the tail.
//   wal.fsync_fail  — fsync reports failure; the log fails closed: every
//                     pending and future ack returns false, nothing is ever
//                     acked that is not on stable storage.
//   fs.enospc       — the write (match_arg kEnospcWalWrite) or fsync
//                     (kEnospcWalFsync) path reports ENOSPC. The log fails
//                     closed like any other I/O failure, but records
//                     failure() == kNoSpace so the durable store can latch
//                     a *recoverable* disk-full state and re-arm with a
//                     fresh writer once a checkpoint drains the backlog.
#ifndef TSUNAMI_DURABILITY_WAL_H_
#define TSUNAMI_DURABILITY_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/types.h"
#include "src/io/serializer.h"

namespace tsunami {
namespace durability {

/// Seed for the per-record XxHash64 frame hash, so WAL frames never verify
/// against hashes computed for storage blocks.
inline constexpr uint64_t kWalHashSeed = 0x57414C21;  // "WAL!"

/// fixed32 body length + fixed64 body hash.
inline constexpr size_t kWalFrameHeaderSize = 4 + 8;

/// Upper bound on one record body; a corrupt length prefix larger than this
/// is treated as a torn/corrupt tail rather than an allocation request.
inline constexpr uint32_t kMaxWalBodyBytes = 64u << 20;

enum class WalRecordType : uint8_t {
  kRowBatch = 1,
};

/// match_arg values for the `fs.enospc` fault site — one per filesystem
/// call site that can hit a full disk. Arming with match_arg = -1 fires at
/// every site.
enum EnospcSite : int64_t {
  kEnospcWalWrite = 0,
  kEnospcWalFsync = 1,
  kEnospcCheckpointRename = 2,
  kEnospcManifestWrite = 3,
};

/// Why the log failed (latched; kNone while healthy). kNoSpace is the one
/// recoverable cause: the durable store keeps serving reads, fails acks
/// closed, and re-arms with a fresh writer once a checkpoint has drained
/// everything the dead log covered.
enum class WalFailure : uint8_t {
  kNone = 0,
  kTornWrite,  // Injected torn group write (wal.torn_write).
  kIoError,    // write/fsync/open failed for a non-ENOSPC reason.
  kNoSpace,    // ENOSPC (real errno or injected fs.enospc).
};

/// One logical WAL record: a batch of rows with the global insert ordinal of
/// its first row. Ordinals are assigned in ingestion order, so recovery can
/// skip exactly the rows a durable checkpoint already folded (the manifest's
/// replay cursor) — even when a batch straddles the fold boundary.
struct WalRecord {
  WalRecordType type = WalRecordType::kRowBatch;
  int64_t first_ordinal = 0;
  std::vector<std::vector<Value>> rows;
};

/// Completes a frame from a row batch encoded by BinaryWriter::PutRowBatch:
/// prepends the record type and `first_ordinal`, then the hash header.
std::string FrameRowBatchPayload(int64_t first_ordinal,
                                 std::string_view batch);

/// PutRowBatch + FrameRowBatchPayload in one call, for tests (the insert
/// path splits the two around its sequencer lock).
std::string EncodeRowBatchRecord(int64_t first_ordinal,
                                 const std::vector<std::vector<Value>>& rows);

/// Decodes the frame starting at `data[*offset]`. On success advances
/// `*offset` past the frame and returns FileError::kNone. kTruncated means
/// the bytes end mid-frame; kChecksumMismatch means a complete frame whose
/// body fails its hash (or decodes to a malformed record). `*offset` is left
/// at the frame start on failure.
FileError DecodeWalFrame(std::string_view data, size_t* offset,
                         WalRecord* out);

/// Result of scanning one segment file front to back.
struct WalSegmentContents {
  std::vector<WalRecord> records;   // Every intact record, in order.
  FileError tail_status = FileError::kNone;  // kNone = clean end of file.
  size_t tail_offset = 0;           // Byte offset where reading stopped.
  std::string message;              // Human-readable cause when not kNone.
};

/// Reads every intact record of the segment at `path`. A torn or corrupt
/// tail ends the read cleanly (records before it are returned, tail_status
/// says why and at which offset); a missing/unreadable file is kIoError.
WalSegmentContents ReadWalSegment(const std::string& path);

struct WalWriterOptions {
  /// fsync (fdatasync) every group commit. Off = page-cache-only commits;
  /// useful to isolate the fsync cost in benchmarks, never durable.
  bool fsync = true;
  /// Run the committer on a dedicated thread. Off = manual mode: nothing
  /// commits until CommitPending(), which tests use to control grouping
  /// deterministically.
  bool background = true;
  /// Cap on bytes coalesced into one group write.
  size_t max_group_bytes = size_t{4} << 20;
  /// Group-commit latency shaping: after the first record of a group
  /// arrives, the background committer waits up to this long for more
  /// records before issuing the write+fsync, trading sync-ack p50 for more
  /// acks per fsync under light concurrency. 0 (default) commits as soon
  /// as the committer wakes — the lowest-latency behavior. Ignored in
  /// manual mode (CommitPending commits immediately either way).
  uint32_t max_commit_delay_micros = 0;
};

/// Append-only writer for one-or-more WAL segments with group commit.
///
/// Thread-safe. Append() never blocks on I/O; WaitDurable() blocks until the
/// record's LSN is on stable storage or the log has failed. The log fails
/// closed and latched: after a torn write or fsync failure, every pending
/// and future WaitDurable returns false and Append returns 0. A failed log
/// never revives in-process — recovery happens by reopening the directory.
class WalWriter {
 public:
  explicit WalWriter(const std::string& path,
                     const WalWriterOptions& options = {});
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// False when the segment could not be opened or the log has failed.
  bool ok() const;
  bool failed() const;
  /// Why the log failed (kNone while healthy). Latched with failed_.
  WalFailure failure() const;

  /// Enqueues one framed record (from FrameRowBatchPayload) and returns its
  /// LSN (1-based, monotone across rotations). Returns 0 if the log has
  /// failed.
  uint64_t Append(std::string frame);

  /// Blocks until every record with LSN <= `lsn` is written and fsync'd.
  /// True = durable; false = the log failed first (fail closed: the bytes
  /// may or may not be on disk, so the caller must not ack).
  bool WaitDurable(uint64_t lsn);

  /// Synchronously commits everything currently enqueued (one group write +
  /// fsync). The only commit path in manual mode; safe to call in background
  /// mode too. True unless the log failed.
  bool CommitPending();

  /// Commits and fsyncs everything pending into the current segment, closes
  /// it, and switches appends to `new_path`. LSNs keep counting. Returns
  /// false (and fails the log) if the flush, close, or open fails. Used by
  /// checkpointing so the manifest can name an exact segment boundary.
  bool RotateTo(const std::string& new_path);

  /// Flushes pending records, fsyncs, and closes the file. Further appends
  /// fail. Called by the destructor.
  void Close();

  uint64_t durable_lsn() const;
  uint64_t last_lsn() const;
  const std::string& path() const;

  struct Stats {
    int64_t appends = 0;           // Records enqueued.
    int64_t records_committed = 0;
    int64_t group_commits = 0;     // write+fsync batches issued.
    int64_t max_group_records = 0; // Largest single group.
    int64_t bytes_written = 0;
    int64_t fsync_failures = 0;    // Includes injected wal.fsync_fail.
    int64_t torn_writes = 0;       // Injected wal.torn_write fires.
    int64_t enospc_failures = 0;   // ENOSPC hits (real or injected).
    int64_t delayed_commits = 0;   // Groups shaped by max_commit_delay.
  };
  Stats stats() const;

 private:
  struct Pending {
    uint64_t lsn;
    std::string frame;
  };

  bool OpenLocked(const std::string& path);
  // Writes + fsyncs every queued record; updates durable_lsn_ and stats.
  // Both mu_ and commit_mu_ rules: see the .cc.
  bool CommitLocked(std::unique_lock<std::mutex>& lock);
  void FailLocked(WalFailure reason);
  void CommitterLoop();

  WalWriterOptions options_;

  mutable std::mutex mu_;
  std::condition_variable pending_cv_;   // Signals the committer.
  std::condition_variable durable_cv_;   // Signals WaitDurable callers.
  std::deque<Pending> queue_;
  std::string path_;
  int fd_ = -1;
  uint64_t next_lsn_ = 1;
  uint64_t durable_lsn_ = 0;
  bool failed_ = false;
  WalFailure failure_ = WalFailure::kNone;
  bool closed_ = false;
  bool stop_ = false;
  bool committing_ = false;  // A CommitLocked is in flight (drops mu_ for IO).
  Stats stats_;

  std::thread committer_;
};

}  // namespace durability
}  // namespace tsunami

#endif  // TSUNAMI_DURABILITY_WAL_H_
