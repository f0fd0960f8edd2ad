#include "src/durability/durable_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "src/common/fault_injection.h"
#include "src/common/resource_governor.h"

namespace tsunami {
namespace durability {

namespace {

/// Atomic, durable TsunamiIndex write: tmp + fsync + rename + dir fsync.
/// The rename is an `fs.enospc` site (kEnospcCheckpointRename): renaming
/// into a full directory can need a block for the directory entry.
bool SaveIndexDurable(const TsunamiIndex& index, const std::string& dir,
                      const std::string& file, bool fsync,
                      std::string* error) {
  const std::string path = dir + "/" + file;
  const std::string tmp = path + ".tmp";
  if (!index.SaveToFile(tmp, error)) return false;
  if (fsync && !FsyncPath(tmp, error)) {
    std::remove(tmp.c_str());
    return false;
  }
  bool renamed = !TSUNAMI_FAULT_FIRES("fs.enospc", kEnospcCheckpointRename);
  if (renamed) renamed = std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!renamed) {
    if (error != nullptr) *error = "cannot rename '" + tmp + "'";
    std::remove(tmp.c_str());
    return false;
  }
  if (fsync) return FsyncDir(dir, error);
  return true;
}

WalWriterOptions MakeWalOptions(const DurabilityOptions& options) {
  WalWriterOptions w;
  w.fsync = options.fsync;
  w.background = options.wal_background;
  w.max_commit_delay_micros = options.wal_commit_delay_micros;
  return w;
}

int64_t FileSizeOrZero(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

}  // namespace

const char* ToString(InsertResult r) {
  switch (r) {
    case InsertResult::kOk:
      return "ok";
    case InsertResult::kResourceExhausted:
      return "resource-exhausted";
    case InsertResult::kNotDurable:
      return "not-durable";
    case InsertResult::kRejected:
      return "rejected";
  }
  return "?";
}

bool WriteManifest(const std::string& path, const Manifest& manifest,
                   std::string* error) {
  if (TSUNAMI_FAULT_FIRES("fs.enospc", kEnospcManifestWrite)) {
    if (error != nullptr) *error = "injected: fs.enospc at manifest write";
    return false;
  }
  BinaryWriter w;
  w.PutVarU64(manifest.seq);
  w.PutVarU64(manifest.checkpoint_version);
  w.PutString(manifest.snapshot_file);
  w.PutVarI64(manifest.rows_folded);
  w.PutVarU64(manifest.first_segment);
  w.PutVarU64(manifest.active_segment);
  return WriteFramedFileDurable(path, FileKind::kDurabilityManifest,
                                w.buffer(), error);
}

bool ReadManifest(const std::string& path, Manifest* manifest,
                  std::string* error, FileError* code) {
  std::string payload;
  uint32_t version = kTsunamiFormatVersion;
  if (!ReadFramedFile(path, FileKind::kDurabilityManifest, &payload, error,
                      code, &version)) {
    return false;
  }
  BinaryReader r(payload);
  r.set_version(version);
  Manifest m;
  m.seq = r.GetVarU64();
  m.checkpoint_version = r.GetVarU64();
  m.snapshot_file = r.GetString();
  m.rows_folded = r.GetVarI64();
  m.first_segment = r.GetVarU64();
  m.active_segment = r.GetVarU64();
  if (!r.ok() || !r.AtEnd() || m.snapshot_file.empty() ||
      m.rows_folded < 0 || m.first_segment > m.active_segment) {
    if (error != nullptr) *error = "'" + path + "' holds a malformed manifest";
    if (code != nullptr) *code = FileError::kChecksumMismatch;
    return false;
  }
  *manifest = m;
  return true;
}

std::string WalSegmentPath(const std::string& dir, uint64_t seq) {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%06llu.log",
                static_cast<unsigned long long>(seq));
  return dir + "/" + name;
}

std::string CheckpointPath(const std::string& dir, uint64_t version) {
  return dir + "/checkpoint-" + std::to_string(version) + ".tsnm";
}

DurableIngestStore::DurableIngestStore(const DurabilityOptions& options)
    : options_(options) {}

DurableIngestStore::~DurableIngestStore() {
  // Quiesce maintenance first: the fold hook uses the WAL.
  if (store_ != nullptr) store_->StopBackground();
  if (wal_ != nullptr) wal_->Close();
}

std::string DurableIngestStore::ManifestPath() const {
  return options_.dir + "/MANIFEST";
}

std::string DurableIngestStore::ReservePath() const {
  return options_.dir + "/RESERVE";
}

void DurableIngestStore::CreateReserve() {
  if (options_.reserve_bytes <= 0) return;
  const std::string path = ReservePath();
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  // Actually write the bytes (not ftruncate): a sparse file reserves
  // nothing, and the whole point is blocks the filesystem cannot hand to
  // anyone else.
  const std::string block(4096, '\0');
  int64_t left = options_.reserve_bytes;
  bool ok = true;
  while (left > 0) {
    const size_t want = static_cast<size_t>(
        std::min<int64_t>(left, static_cast<int64_t>(block.size())));
    const ssize_t r = ::write(fd, block.data(), want);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      ok = false;
      break;
    }
    left -= static_cast<int64_t>(r);
  }
  if (ok) ::fdatasync(fd);
  ::close(fd);
  // A partial reserve on an already-tight disk is worse than none: it eats
  // the very space a checkpoint needs.
  if (!ok) std::remove(path.c_str());
}

bool DurableIngestStore::DropReserve() {
  if (std::remove(ReservePath().c_str()) != 0) return false;
  std::lock_guard<std::mutex> s(stats_mu_);
  ++stats_.reserve_drops;
  return true;
}

std::unique_ptr<DurableIngestStore> DurableIngestStore::Open(
    const Dataset& base_data, const Workload& workload,
    const DurabilityOptions& options, std::string* error) {
  std::string err;
  if (options.dir.empty()) {
    if (error != nullptr) *error = "durability dir must be set";
    return nullptr;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create '" + options.dir + "': " + ec.message();
    }
    return nullptr;
  }
  std::unique_ptr<DurableIngestStore> s(new DurableIngestStore(options));
  if (std::filesystem::exists(s->ManifestPath())) {
    Manifest manifest;
    // A corrupt manifest fails Open — never silently rebuild over a
    // directory that claims to hold data.
    if (!ReadManifest(s->ManifestPath(), &manifest, &err) ||
        !s->Recover(workload, manifest, &err)) {
      if (error != nullptr) *error = err;
      return nullptr;
    }
  } else if (!s->Bootstrap(base_data, workload, &err)) {
    if (error != nullptr) *error = err;
    return nullptr;
  }
  return s;
}

bool DurableIngestStore::Bootstrap(const Dataset& base_data,
                                   const Workload& workload,
                                   std::string* error) {
  const auto t0 = std::chrono::steady_clock::now();
  ingest::IngestOptions quiet = options_.ingest;
  quiet.background_compaction = false;
  store_ = std::make_unique<ingest::IngestStore>(base_data, workload, quiet);

  const uint64_t version = store_->version();
  const std::string file = "checkpoint-" + std::to_string(version) + ".tsnm";
  if (!SaveIndexDurable(store_->CurrentSnapshot()->index(), options_.dir,
                        file, options_.fsync, error)) {
    return false;
  }

  wal_ = std::make_shared<WalWriter>(WalSegmentPath(options_.dir, 1),
                                     MakeWalOptions(options_));
  if (!wal_->ok()) {
    if (error != nullptr) {
      *error = "cannot open WAL segment '" + WalSegmentPath(options_.dir, 1) +
               "'";
    }
    return false;
  }
  active_segment_ = 1;
  next_segment_seq_ = 2;

  Manifest m;
  m.seq = 1;
  m.checkpoint_version = version;
  m.snapshot_file = file;
  m.rows_folded = 0;
  m.first_segment = 1;
  m.active_segment = 1;
  if (!WriteManifest(ManifestPath(), m, error)) return false;
  manifest_ = m;
  CreateReserve();

  recovery_.recovered = false;
  recovery_.checkpoint_version = version;
  recovery_.checkpoint_rows = base_data.size();
  recovery_.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  AttachHook();
  if (options_.ingest.background_compaction) store_->StartBackground();
  return true;
}

bool DurableIngestStore::Recover(const Workload& workload,
                                 const Manifest& manifest,
                                 std::string* error) {
  const auto t0 = std::chrono::steady_clock::now();
  std::string err;
  std::unique_ptr<TsunamiIndex> loaded = TsunamiIndex::LoadFromFile(
      options_.dir + "/" + manifest.snapshot_file, &err);
  if (loaded == nullptr) {
    if (error != nullptr) {
      *error = "recovery: cannot load checkpoint: " + err;
    }
    return false;
  }
  std::shared_ptr<const TsunamiIndex> index(std::move(loaded));
  recovery_.recovered = true;
  recovery_.checkpoint_version = manifest.checkpoint_version;
  recovery_.checkpoint_rows = index->store().size();
  recovery_.replay_cursor = manifest.rows_folded;

  ingest::IngestOptions quiet = options_.ingest;
  quiet.background_compaction = false;
  store_ = std::make_unique<ingest::IngestStore>(
      index, workload, quiet, manifest.checkpoint_version);
  next_ordinal_ = manifest.rows_folded;
  rows_folded_total_ = manifest.rows_folded;
  manifest_ = manifest;

  // Replay every live segment in order. A torn/corrupt tail ends that
  // segment's records — the next segment (created by a previous recovery's
  // rotation) continues at exactly the surviving cursor, so replay goes on;
  // the gap check below is what guards against actual mid-log loss.
  // Size-based rotation rolls segments without rewriting the manifest, so
  // the live log may extend past manifest.active_segment: keep scanning
  // while consecutively-numbered segment files exist.
  bool aborted = false;
  uint64_t last_seq = manifest.active_segment;
  for (uint64_t seq = manifest.first_segment; !aborted; ++seq) {
    const std::string seg_path = WalSegmentPath(options_.dir, seq);
    if (seq > manifest.active_segment) {
      std::error_code ec;
      if (!std::filesystem::exists(seg_path, ec)) break;
    }
    last_seq = seq;
    WalSegmentContents seg = ReadWalSegment(seg_path);
    if (seg.tail_status != FileError::kIoError) ++recovery_.segments_read;
    for (WalRecord& record : seg.records) {
      const int64_t n = static_cast<int64_t>(record.rows.size());
      if (record.first_ordinal > next_ordinal_) {
        // Rows missing between the cursor and this record: applying past
        // the hole would corrupt ingestion order. Stop replay entirely.
        recovery_.wal_tail_status = FileError::kChecksumMismatch;
        recovery_.wal_tail_message =
            "ordinal gap: segment " + std::to_string(seq) + " starts at " +
            std::to_string(record.first_ordinal) + ", cursor at " +
            std::to_string(next_ordinal_);
        aborted = true;
        break;
      }
      const int64_t skip =
          std::min<int64_t>(n, next_ordinal_ - record.first_ordinal);
      recovery_.skipped_rows += skip;
      if (skip < n) {
        std::vector<std::vector<Value>> apply(
            record.rows.begin() + static_cast<ptrdiff_t>(skip),
            record.rows.end());
        store_->InsertBatch(apply);
        next_ordinal_ += n - skip;
        recovery_.replayed_rows += n - skip;
      }
      ++recovery_.replayed_records;
    }
    if (!aborted && seg.tail_status != FileError::kNone) {
      recovery_.wal_tail_status = seg.tail_status;
      recovery_.wal_tail_message = seg.message;
    }
    if (!aborted) {
      closed_segment_end_[seq] = next_ordinal_;
      const int64_t seg_bytes = FileSizeOrZero(seg_path);
      closed_segment_bytes_[seq] = seg_bytes;
      ChargeWalBytes(seg_bytes);
    }
  }

  // Never append to a possibly-torn tail: garbage mid-file would hide every
  // later record from the next recovery. Always begin a fresh segment —
  // past any orphan file a gap-aborted replay left behind, so a new
  // segment never truncates evidence.
  uint64_t new_seg = last_seq + 1;
  {
    std::error_code ec;
    while (std::filesystem::exists(WalSegmentPath(options_.dir, new_seg),
                                   ec)) {
      ++new_seg;
    }
  }
  wal_ = std::make_shared<WalWriter>(WalSegmentPath(options_.dir, new_seg),
                                     MakeWalOptions(options_));
  if (!wal_->ok()) {
    if (error != nullptr) {
      *error = "recovery: cannot open WAL segment '" +
               WalSegmentPath(options_.dir, new_seg) + "'";
    }
    return false;
  }
  active_segment_ = new_seg;
  next_segment_seq_ = new_seg + 1;

  Manifest m = manifest;
  m.seq = manifest.seq + 1;
  m.active_segment = new_seg;
  m.first_segment = new_seg;
  for (const auto& [seg_seq, end] : closed_segment_end_) {
    if (end > m.rows_folded) {
      m.first_segment = std::min(m.first_segment, seg_seq);
    }
  }
  if (!WriteManifest(ManifestPath(), m, error)) return false;
  manifest_ = m;
  for (auto it = closed_segment_end_.begin();
       it != closed_segment_end_.end();) {
    if (it->second <= m.rows_folded) {
      std::remove(WalSegmentPath(options_.dir, it->first).c_str());
      const auto bit = closed_segment_bytes_.find(it->first);
      if (bit != closed_segment_bytes_.end()) {
        ReleaseWalBytes(bit->second);
        closed_segment_bytes_.erase(bit);
      }
      ++stats_.segments_deleted;
      it = closed_segment_end_.erase(it);
    } else {
      ++it;
    }
  }
  CreateReserve();

  recovery_.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  AttachHook();
  if (options_.ingest.background_compaction) store_->StartBackground();
  return true;
}

void DurableIngestStore::AttachHook() {
  store_->SetFoldHook(
      [this](const std::shared_ptr<const TsunamiIndex>& index,
             uint64_t version, int64_t rows_folded) {
        OnFold(index, version, rows_folded);
      });
}

bool DurableIngestStore::Insert(const std::vector<Value>& row) {
  return InsertBatch({row});
}

bool DurableIngestStore::InsertBatch(
    const std::vector<std::vector<Value>>& rows) {
  return TryInsertBatch(rows) == InsertResult::kOk;
}

InsertResult DurableIngestStore::TryInsert(const std::vector<Value>& row) {
  return TryInsertBatch({row});
}

bool DurableIngestStore::enospc_latched() const {
  std::lock_guard<std::mutex> lock(seq_mu_);
  return enospc_latched_;
}

InsertResult DurableIngestStore::LatchFailureLocked(WalFailure reason) {
  if (reason == WalFailure::kNoSpace) {
    if (!enospc_latched_) {
      enospc_latched_ = true;
      std::lock_guard<std::mutex> s(stats_mu_);
      ++stats_.enospc_latches;
    }
    std::lock_guard<std::mutex> s(stats_mu_);
    ++stats_.resource_rejections;
    return InsertResult::kResourceExhausted;
  }
  write_disabled_ = true;
  std::lock_guard<std::mutex> s(stats_mu_);
  ++stats_.rejected_batches;
  return InsertResult::kRejected;
}

InsertResult DurableIngestStore::TryInsertBatch(
    const std::vector<std::vector<Value>>& rows) {
  if (rows.empty()) return InsertResult::kOk;
  // Disk-full latch: try to drain-and-re-arm (throttled) before rejecting,
  // so ingest resumes by itself once space frees.
  if (enospc_latched() && !AttemptRearm()) {
    std::lock_guard<std::mutex> s(stats_mu_);
    ++stats_.resource_rejections;
    return InsertResult::kResourceExhausted;
  }
  // The expensive part of framing (per-value varints) does not depend on
  // the ordinal, so concurrent writers encode in parallel here; the
  // sequencer lock below only covers the frame prefix, a memcpy, and the
  // in-memory apply.
  BinaryWriter batch;
  batch.PutRowBatch(rows);
  const std::string payload = batch.Release();
  ResourceGovernor* const gov = options_.ingest.governor;
  uint64_t lsn = 0;
  std::shared_ptr<WalWriter> wal;
  {
    std::lock_guard<std::mutex> lock(seq_mu_);
    if (enospc_latched_) {
      std::lock_guard<std::mutex> s(stats_mu_);
      ++stats_.resource_rejections;
      return InsertResult::kResourceExhausted;
    }
    if (write_disabled_) {
      std::lock_guard<std::mutex> s(stats_mu_);
      ++stats_.rejected_batches;
      return InsertResult::kRejected;
    }
    if (wal_->failed()) return LatchFailureLocked(wal_->failure());
    // WAL disk budget: reject *before* assigning an ordinal so the refusal
    // is retryable (nothing logged, nothing applied). The estimate ignores
    // the short frame prefix; exact bytes are charged after framing.
    if (gov != nullptr &&
        gov->WouldExceed(ResourcePool::kWalDisk,
                         static_cast<int64_t>(payload.size()))) {
      std::lock_guard<std::mutex> s(stats_mu_);
      ++stats_.resource_rejections;
      return InsertResult::kResourceExhausted;
    }
    std::string frame = FrameRowBatchPayload(next_ordinal_, payload);
    const int64_t frame_bytes = static_cast<int64_t>(frame.size());
    lsn = wal_->Append(std::move(frame));
    if (lsn == 0) return LatchFailureLocked(wal_->failure());
    ChargeWalBytes(frame_bytes);
    active_segment_bytes_ += frame_bytes;
    // Apply under seq_mu_: store append order must equal ordinal order (the
    // prefix property recovery depends on).
    next_ordinal_ += static_cast<int64_t>(rows.size());
    store_->InsertBatch(rows);
    // Pin the writer this batch appended to: a concurrent disk-full re-arm
    // may swap wal_ while we wait for durability below.
    wal = wal_;
    std::lock_guard<std::mutex> s(stats_mu_);
    ++stats_.batches_logged;
    stats_.rows_logged += static_cast<int64_t>(rows.size());
  }
  MaybeRotateBySize();
  if (!options_.durable_acks) return InsertResult::kOk;
  if (wal->WaitDurable(lsn)) {
    std::lock_guard<std::mutex> s(stats_mu_);
    ++stats_.durable_acks;
    return InsertResult::kOk;
  }
  // The log died between our append and its fsync: the rows are applied in
  // memory but not durable. Latch the matching failure mode so later
  // inserts are refused pre-admission.
  {
    std::lock_guard<std::mutex> lock(seq_mu_);
    if (wal_.get() == wal.get() && !write_disabled_ && !enospc_latched_) {
      if (wal->failure() == WalFailure::kNoSpace) {
        enospc_latched_ = true;
        std::lock_guard<std::mutex> s(stats_mu_);
        ++stats_.enospc_latches;
      } else {
        write_disabled_ = true;
      }
    }
  }
  std::lock_guard<std::mutex> s(stats_mu_);
  ++stats_.failed_acks;
  return InsertResult::kNotDurable;
}

void DurableIngestStore::MaybeRotateBySize() {
  if (options_.max_segment_bytes <= 0) return;
  {
    // Cheap peek before taking the checkpoint lock on every batch.
    std::lock_guard<std::mutex> seq(seq_mu_);
    if (active_segment_bytes_ < options_.max_segment_bytes) return;
  }
  std::lock_guard<std::mutex> ck(ckpt_mu_);
  std::lock_guard<std::mutex> seq(seq_mu_);
  if (active_segment_bytes_ < options_.max_segment_bytes) return;
  if (enospc_latched_ || write_disabled_ || wal_->failed()) return;
  // No manifest write here: recovery forward-scans past the manifest's
  // active_segment, so a roll only needs the new file to exist.
  const uint64_t new_seg = next_segment_seq_;
  if (!wal_->RotateTo(WalSegmentPath(options_.dir, new_seg))) return;
  ++next_segment_seq_;
  closed_segment_end_[active_segment_] = next_ordinal_;
  closed_segment_bytes_[active_segment_] = active_segment_bytes_;
  active_segment_ = new_seg;
  active_segment_bytes_ = 0;
  std::lock_guard<std::mutex> s(stats_mu_);
  ++stats_.size_rotations;
}

bool DurableIngestStore::AttemptRearm() {
  {
    std::lock_guard<std::mutex> seq(seq_mu_);
    if (!enospc_latched_) return !write_disabled_;
  }
  {
    std::lock_guard<std::mutex> ck(ckpt_mu_);
    const auto now = std::chrono::steady_clock::now();
    if (now - last_rearm_attempt_ <
        std::chrono::milliseconds(options_.rearm_backoff_millis)) {
      return false;
    }
    last_rearm_attempt_ = now;
    // A fold since the latch may already have drained everything.
    if (RearmLocked()) return true;
  }
  // Drive a full drain: seal the open chunk and fold synchronously. The
  // fold hook writes the checkpoint and re-arms inline when it covers
  // every assigned ordinal.
  store_->ForceRoll();
  store_->CompactNow();
  std::lock_guard<std::mutex> ck(ckpt_mu_);
  return RearmLocked();
}

bool DurableIngestStore::RearmLocked() {
  int64_t assigned = 0;
  {
    std::lock_guard<std::mutex> seq(seq_mu_);
    if (!enospc_latched_) return !write_disabled_;
    assigned = next_ordinal_;
  }
  // Every ordinal ever assigned — including rows applied in memory whose
  // acks failed — must be covered by the *durable* manifest before a fresh
  // segment opens. Resuming the log across undrained ordinals would leave
  // a gap that makes the next recovery discard everything after it.
  if (manifest_.rows_folded < assigned) return false;
  const uint64_t new_seg = next_segment_seq_;
  auto fresh = std::make_shared<WalWriter>(WalSegmentPath(options_.dir, new_seg),
                                           MakeWalOptions(options_));
  if (!fresh->ok()) {
    std::remove(WalSegmentPath(options_.dir, new_seg).c_str());
    return false;
  }
  Manifest m = manifest_;
  m.seq = manifest_.seq + 1;
  m.first_segment = new_seg;
  m.active_segment = new_seg;
  std::string err;
  bool wrote = WriteManifest(ManifestPath(), m, &err);
  if (!wrote && DropReserve()) wrote = WriteManifest(ManifestPath(), m, &err);
  if (!wrote) {
    fresh->Close();
    std::remove(WalSegmentPath(options_.dir, new_seg).c_str());
    return false;
  }
  manifest_ = m;
  ++next_segment_seq_;
  // The checkpoint covers every segment of the dead log; delete them all
  // (closed ones and the failed active one).
  int64_t deleted = 0;
  for (auto it = closed_segment_end_.begin();
       it != closed_segment_end_.end();) {
    std::remove(WalSegmentPath(options_.dir, it->first).c_str());
    const auto bit = closed_segment_bytes_.find(it->first);
    if (bit != closed_segment_bytes_.end()) {
      ReleaseWalBytes(bit->second);
      closed_segment_bytes_.erase(bit);
    }
    ++deleted;
    it = closed_segment_end_.erase(it);
  }
  std::remove(WalSegmentPath(options_.dir, active_segment_).c_str());
  ++deleted;
  {
    std::lock_guard<std::mutex> seq(seq_mu_);
    ReleaseWalBytes(active_segment_bytes_);
    active_segment_bytes_ = 0;
    wal_ = std::move(fresh);
    enospc_latched_ = false;
    write_disabled_ = false;
  }
  active_segment_ = new_seg;
  CreateReserve();
  std::lock_guard<std::mutex> s(stats_mu_);
  ++stats_.rearms;
  stats_.segments_deleted += deleted;
  return true;
}

void DurableIngestStore::ChargeWalBytes(int64_t bytes) {
  if (options_.ingest.governor != nullptr && bytes > 0) {
    options_.ingest.governor->Charge(ResourcePool::kWalDisk, bytes);
  }
}

void DurableIngestStore::ReleaseWalBytes(int64_t bytes) {
  if (options_.ingest.governor != nullptr && bytes > 0) {
    options_.ingest.governor->Release(ResourcePool::kWalDisk, bytes);
  }
}

void DurableIngestStore::OnFold(
    const std::shared_ptr<const TsunamiIndex>& index, uint64_t version,
    int64_t rows_folded) {
  std::lock_guard<std::mutex> ck(ckpt_mu_);
  rows_folded_total_ += rows_folded;
  if (!options_.checkpoint_on_fold) return;
  const std::string file = "checkpoint-" + std::to_string(version) + ".tsnm";
  try {
    if (TSUNAMI_FAULT_FIRES("durability.checkpoint_throw",
                            static_cast<int64_t>(version))) {
      throw std::runtime_error("injected: durability.checkpoint_throw");
    }
    std::string err;
    bool saved =
        SaveIndexDurable(*index, options_.dir, file, options_.fsync, &err);
    if (!saved && DropReserve()) {
      // Disk full: spend the preallocated reserve so the checkpoint that
      // will *free* space (by truncating the WAL) can land.
      saved =
          SaveIndexDurable(*index, options_.dir, file, options_.fsync, &err);
    }
    if (!saved) throw std::runtime_error(err);
    // Rotate under seq_mu_ so the closed segment's end ordinal is exact:
    // every record logged so far lands in it, nothing after does.
    {
      std::lock_guard<std::mutex> seq(seq_mu_);
      const uint64_t new_seg = next_segment_seq_;
      if (wal_->RotateTo(WalSegmentPath(options_.dir, new_seg))) {
        ++next_segment_seq_;
        closed_segment_end_[active_segment_] = next_ordinal_;
        closed_segment_bytes_[active_segment_] = active_segment_bytes_;
        active_segment_ = new_seg;
        active_segment_bytes_ = 0;
      }
      // Rotation failure means the WAL is dead; the manifest below still
      // advances the replay cursor, which is strictly beneficial.
    }
    Manifest m;
    m.seq = manifest_.seq + 1;
    m.checkpoint_version = version;
    m.snapshot_file = file;
    m.rows_folded = rows_folded_total_;
    m.active_segment = active_segment_;
    m.first_segment = active_segment_;
    for (const auto& [seg_seq, end] : closed_segment_end_) {
      if (end > m.rows_folded) {
        m.first_segment = std::min(m.first_segment, seg_seq);
      }
    }
    std::string werr;
    bool wrote = WriteManifest(ManifestPath(), m, &werr);
    if (!wrote && DropReserve()) {
      wrote = WriteManifest(ManifestPath(), m, &werr);
    }
    if (!wrote) throw std::runtime_error(werr);
    const std::string prev_snapshot = manifest_.snapshot_file;
    manifest_ = m;
    // Everything the checkpoint covers can go: fully folded segments and
    // the superseded snapshot.
    int64_t deleted = 0;
    for (auto it = closed_segment_end_.begin();
         it != closed_segment_end_.end();) {
      if (it->second <= m.rows_folded) {
        std::remove(WalSegmentPath(options_.dir, it->first).c_str());
        const auto bit = closed_segment_bytes_.find(it->first);
        if (bit != closed_segment_bytes_.end()) {
          ReleaseWalBytes(bit->second);
          closed_segment_bytes_.erase(bit);
        }
        ++deleted;
        it = closed_segment_end_.erase(it);
      } else {
        ++it;
      }
    }
    if (!prev_snapshot.empty() && prev_snapshot != file) {
      std::remove((options_.dir + "/" + prev_snapshot).c_str());
    }
    // Replenish a spent reserve: the checkpoint just freed segment bytes,
    // so this is the moment the preallocation can succeed again.
    if (options_.reserve_bytes > 0 &&
        !std::filesystem::exists(ReservePath())) {
      CreateReserve();
    }
    {
      std::lock_guard<std::mutex> s(stats_mu_);
      ++stats_.checkpoints;
      stats_.segments_deleted += deleted;
    }
  } catch (const std::exception&) {
    // Fail closed: the WAL retains every record; the next fold retries.
    std::remove((options_.dir + "/" + file + ".tmp").c_str());
    std::lock_guard<std::mutex> s(stats_mu_);
    ++stats_.checkpoint_failures;
  }
  // Disk-full poll: if we are latched and the checkpoint that just landed
  // (or an earlier one) now covers every assigned ordinal, re-open the log
  // here — ingest resumes without waiting for the next rejected insert.
  bool latched;
  {
    std::lock_guard<std::mutex> seq(seq_mu_);
    latched = enospc_latched_;
  }
  if (latched) (void)RearmLocked();
}

bool DurableIngestStore::CheckpointNow() {
  uint64_t before;
  {
    std::lock_guard<std::mutex> ck(ckpt_mu_);
    before = manifest_.seq;
  }
  store_->ForceRoll();
  store_->CompactNow();
  std::lock_guard<std::mutex> ck(ckpt_mu_);
  return manifest_.seq != before;
}

int64_t DurableIngestStore::next_ordinal() const {
  std::lock_guard<std::mutex> lock(seq_mu_);
  return next_ordinal_;
}

DurableIngestStore::Stats DurableIngestStore::stats() const {
  Stats s;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    s = stats_;
  }
  std::shared_ptr<WalWriter> wal;
  {
    std::lock_guard<std::mutex> lock(seq_mu_);
    wal = wal_;
  }
  s.wal = wal->stats();
  return s;
}

}  // namespace durability
}  // namespace tsunami
