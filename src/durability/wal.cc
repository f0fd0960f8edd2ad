#include "src/durability/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "src/common/fault_injection.h"

namespace tsunami {
namespace durability {

namespace {

bool FsyncData(int fd) {
#if defined(__linux__)
  return ::fdatasync(fd) == 0;
#else
  return ::fsync(fd) == 0;
#endif
}

}  // namespace

std::string FrameRowBatchPayload(int64_t first_ordinal,
                                 std::string_view batch) {
  std::string out(kWalFrameHeaderSize + 1 + kMaxVarintBytes + batch.size(),
                  '\0');
  char* const body = out.data() + kWalFrameHeaderSize;
  char* p = body;
  *p++ = static_cast<char>(WalRecordType::kRowBatch);
  p = StoreVarint(p, ZigzagEncode(first_ordinal));
  std::memcpy(p, batch.data(), batch.size());
  p += batch.size();
  const uint32_t body_len = static_cast<uint32_t>(p - body);
  out.resize(kWalFrameHeaderSize + body_len);
  StoreFixed<uint32_t>(out.data(), body_len);
  StoreFixed<uint64_t>(out.data() + 4,
                       XxHash64(std::string_view(body, body_len),
                                kWalHashSeed));
  return out;
}

std::string EncodeRowBatchRecord(int64_t first_ordinal,
                                 const std::vector<std::vector<Value>>& rows) {
  BinaryWriter batch;
  batch.PutRowBatch(rows);
  return FrameRowBatchPayload(first_ordinal, batch.buffer());
}

FileError DecodeWalFrame(std::string_view data, size_t* offset,
                         WalRecord* out) {
  const size_t start = *offset;
  if (data.size() - start < kWalFrameHeaderSize) return FileError::kTruncated;
  const uint32_t body_len = LoadFixed<uint32_t>(data.data() + start);
  const uint64_t body_hash = LoadFixed<uint64_t>(data.data() + start + 4);
  // A length beyond the cap is a corrupt header, not an allocation request.
  if (body_len > kMaxWalBodyBytes) return FileError::kChecksumMismatch;
  if (data.size() - start - kWalFrameHeaderSize < body_len) {
    return FileError::kTruncated;
  }
  std::string_view body = data.substr(start + kWalFrameHeaderSize, body_len);
  if (XxHash64(body, kWalHashSeed) != body_hash) {
    return FileError::kChecksumMismatch;
  }

  // The hash already vouches for the bytes; the decode checks only catch
  // encoder bugs, and a mismatch still fails typed instead of allocating
  // wildly (GetRowBatch bounds rows x dims by the bytes left).
  BinaryReader reader(body);
  WalRecord record;
  const uint8_t type = reader.GetU8();
  record.first_ordinal = reader.GetVarI64();
  if (type != static_cast<uint8_t>(WalRecordType::kRowBatch) ||
      !reader.GetRowBatch(kMaxWalBodyBytes, kMaxWalBodyBytes, &record.rows) ||
      !reader.AtEnd()) {
    return FileError::kChecksumMismatch;
  }
  *out = std::move(record);
  *offset = start + kWalFrameHeaderSize + body_len;
  return FileError::kNone;
}

WalSegmentContents ReadWalSegment(const std::string& path) {
  WalSegmentContents result;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    result.tail_status = FileError::kIoError;
    result.message = "cannot open WAL segment '" + path + "'";
    return result;
  }
  std::string contents;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    contents.append(chunk, n);
  }
  std::fclose(f);

  size_t offset = 0;
  while (offset < contents.size()) {
    WalRecord record;
    FileError status = DecodeWalFrame(contents, &offset, &record);
    if (status == FileError::kNone) {
      result.records.push_back(std::move(record));
      continue;
    }
    result.tail_status = status;
    result.tail_offset = offset;
    result.message =
        "'" + path + "': " +
        (status == FileError::kTruncated ? "record torn (truncated)"
                                         : "record checksum mismatch") +
        " at offset " + std::to_string(offset) + " of " +
        std::to_string(contents.size()) + " bytes";
    return result;
  }
  result.tail_offset = contents.size();
  return result;
}

WalWriter::WalWriter(const std::string& path, const WalWriterOptions& options)
    : options_(options) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!OpenLocked(path)) {
    failed_ = true;
    return;
  }
  if (options_.background) {
    committer_ = std::thread([this] { CommitterLoop(); });
  }
}

WalWriter::~WalWriter() { Close(); }

bool WalWriter::OpenLocked(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return false;
  fd_ = fd;
  path_ = path;
  return true;
}

bool WalWriter::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !failed_ && !closed_;
}

bool WalWriter::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

WalFailure WalWriter::failure() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failure_;
}

uint64_t WalWriter::Append(std::string frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_ || closed_) return 0;
  uint64_t lsn = next_lsn_++;
  queue_.push_back(Pending{lsn, std::move(frame)});
  ++stats_.appends;
  pending_cv_.notify_one();
  return lsn;
}

bool WalWriter::WaitDurable(uint64_t lsn) {
  if (lsn == 0) return false;
  std::unique_lock<std::mutex> lock(mu_);
  durable_cv_.wait(lock, [&] { return failed_ || durable_lsn_ >= lsn; });
  // Once durable, always durable — even if the log failed afterwards.
  return durable_lsn_ >= lsn;
}

void WalWriter::FailLocked(WalFailure reason) {
  failed_ = true;
  if (failure_ == WalFailure::kNone) failure_ = reason;
  queue_.clear();
  durable_cv_.notify_all();
  pending_cv_.notify_all();
}

bool WalWriter::CommitLocked(std::unique_lock<std::mutex>& lock) {
  // Caller holds mu_ and has checked !committing_. The I/O runs with mu_
  // dropped so writers keep enqueueing the next group meanwhile; committing_
  // keeps two commits from interleaving their writes.
  if (failed_) return false;
  if (queue_.empty()) return true;
  committing_ = true;

  // Take the group out of the queue with pointer moves only; the byte
  // concatenation happens after the lock drops so writers keep appending at
  // full speed while the group is assembled and written.
  std::vector<std::string> frames;
  uint64_t last_lsn = 0;
  size_t group_bytes = 0;
  while (!queue_.empty() && group_bytes < options_.max_group_bytes) {
    group_bytes += queue_.front().frame.size();
    last_lsn = queue_.front().lsn;
    frames.push_back(std::move(queue_.front().frame));
    queue_.pop_front();
  }
  const int64_t group_records = static_cast<int64_t>(frames.size());
  const int fd = fd_;
  lock.unlock();

  std::string buffer;
  buffer.reserve(group_bytes);
  for (const std::string& frame : frames) buffer += frame;

  // Fault site: a crash tears the group mid-write. Only a prefix of the
  // buffer reaches the file (param = bytes kept, default half) and the log
  // fails — exactly what replay's torn-tail tolerance must absorb.
  size_t to_write = buffer.size();
  bool torn = false;
  if (TSUNAMI_FAULT_FIRES("wal.torn_write", buffer.size())) {
    int64_t keep = fault::Param("wal.torn_write");
    if (keep < 0 || keep >= static_cast<int64_t>(buffer.size())) {
      keep = static_cast<int64_t>(buffer.size() / 2);
    }
    to_write = static_cast<size_t>(keep);
    torn = true;
  }

  bool wrote = true;
  bool no_space = false;
  size_t written = 0;
  // Fault site: the filesystem fills up under the group write. Nothing
  // reaches the file; the log fails closed with a *recoverable* reason so
  // the durable store can re-arm once space frees.
  if (TSUNAMI_FAULT_FIRES("fs.enospc", kEnospcWalWrite)) {
    wrote = false;
    no_space = true;
  }
  while (wrote && written < to_write) {
    ssize_t r = ::write(fd, buffer.data() + written, to_write - written);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && errno == ENOSPC) no_space = true;
      wrote = false;
      break;
    }
    written += static_cast<size_t>(r);
  }

  bool synced = false;
  bool fsync_failed = false;
  if (wrote && !torn) {
    // Fault sites: the device lied or died at fsync (wal.fsync_fail), or
    // the delayed-allocation write only surfaces ENOSPC at sync time
    // (fs.enospc). Fail closed either way — nothing past durable_lsn_ may
    // ever be acked.
    if (TSUNAMI_FAULT_FIRES("wal.fsync_fail", last_lsn)) {
      fsync_failed = true;
    } else if (TSUNAMI_FAULT_FIRES("fs.enospc", kEnospcWalFsync)) {
      fsync_failed = true;
      no_space = true;
    } else if (options_.fsync) {
      errno = 0;
      synced = FsyncData(fd);
      fsync_failed = !synced;
      if (fsync_failed && errno == ENOSPC) no_space = true;
    } else {
      synced = true;
    }
  }

  lock.lock();
  committing_ = false;
  stats_.bytes_written += static_cast<int64_t>(written);
  if (torn) ++stats_.torn_writes;
  if (fsync_failed) ++stats_.fsync_failures;
  if (no_space) ++stats_.enospc_failures;
  bool success = wrote && !torn && synced;
  if (success) {
    durable_lsn_ = last_lsn;
    stats_.records_committed += group_records;
    ++stats_.group_commits;
    if (group_records > stats_.max_group_records) {
      stats_.max_group_records = group_records;
    }
    durable_cv_.notify_all();
  } else {
    FailLocked(no_space ? WalFailure::kNoSpace
                        : torn ? WalFailure::kTornWrite : WalFailure::kIoError);
  }
  return success;
}

bool WalWriter::CommitPending() {
  std::unique_lock<std::mutex> lock(mu_);
  // Also wait out an in-flight group: its frames left the queue already,
  // but they are not durable (and not counted) until it completes.
  while (!failed_ && (!queue_.empty() || committing_)) {
    if (committing_) {
      durable_cv_.wait(lock);
      continue;
    }
    CommitLocked(lock);
  }
  return !failed_;
}

bool WalWriter::RotateTo(const std::string& new_path) {
  std::unique_lock<std::mutex> lock(mu_);
  // Drain into the old segment so the boundary is exact — including any
  // in-flight group, which is still writing to the fd about to be closed.
  // The caller serializes rotation against new appends (the durable store
  // holds its sequencer lock), so this terminates.
  while (!failed_ && (!queue_.empty() || committing_)) {
    if (committing_) {
      durable_cv_.wait(lock);
      continue;
    }
    CommitLocked(lock);
  }
  if (failed_ || closed_) return false;
  ::close(fd_);
  fd_ = -1;
  if (!OpenLocked(new_path)) {
    FailLocked(errno == ENOSPC ? WalFailure::kNoSpace : WalFailure::kIoError);
    return false;
  }
  return true;
}

void WalWriter::Close() {
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_) return;
  // Best-effort final flush (waiting out any in-flight group), then refuse
  // further appends.
  while (!failed_ && (!queue_.empty() || committing_)) {
    if (committing_) {
      durable_cv_.wait(lock);
      continue;
    }
    CommitLocked(lock);
  }
  closed_ = true;
  stop_ = true;
  pending_cv_.notify_all();
  lock.unlock();
  if (committer_.joinable()) committer_.join();
  lock.lock();
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

uint64_t WalWriter::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

uint64_t WalWriter::last_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_lsn_ - 1;
}

const std::string& WalWriter::path() const { return path_; }

WalWriter::Stats WalWriter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void WalWriter::CommitterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    pending_cv_.wait(lock, [&] {
      return stop_ || failed_ || (!queue_.empty() && !committing_);
    });
    if (stop_ || failed_) return;
    if (options_.max_commit_delay_micros > 0) {
      // Latency shaping: hold the group open briefly so concurrent writers
      // land in this fsync instead of the next one. New appends notify
      // pending_cv_, but the predicate only releases the wait on stop/fail,
      // so the full delay elapses (bounded ack latency, bigger groups).
      const size_t before = queue_.size();
      pending_cv_.wait_for(
          lock, std::chrono::microseconds(options_.max_commit_delay_micros),
          [&] { return stop_ || failed_; });
      if (stop_ || failed_) return;
      if (committing_) continue;  // A manual CommitPending took the group.
      if (queue_.empty()) continue;
      if (queue_.size() > before) ++stats_.delayed_commits;
    }
    CommitLocked(lock);
  }
}

}  // namespace durability
}  // namespace tsunami
