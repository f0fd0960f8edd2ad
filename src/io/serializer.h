// Binary serialization substrate for index persistence (§8 "Persistence"):
// a little-endian append-only writer, a bounds-checked reader, CRC-32
// integrity checksums, and a framed file format with magic, version, and
// payload checksum. No dependency above src/common.
#ifndef TSUNAMI_IO_SERIALIZER_H_
#define TSUNAMI_IO_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"

namespace tsunami {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over `data`.
uint32_t Crc32(std::string_view data);

/// 64-bit xxhash-style hash over `data` (XXH64 algorithm). Used for the
/// per-block storage checksums: wider and cheaper per byte than CRC-32, so
/// a scan can afford to verify a block on first touch.
uint64_t XxHash64(std::string_view data, uint64_t seed = 0);

/// Current framed-file format version.
/// Version 2: ColumnStore payloads hold per-block codecs + code arrays
/// (encoded_column.h) instead of delta-varint raw columns, and the Tsunami
/// delta buffer is columnar.
/// Version 3: encoded columns append per-block XxHash64 checksums so a
/// corrupt block can be quarantined (not fatal) at load or on first scan
/// touch. Version-2 files are still read (checksums recomputed from the
/// payload, which the frame CRC already validated); version-1 files are
/// rejected cleanly.
/// The Tsunami delta-buffer slot is retired within v3 (inserts live in
/// ingest::DeltaChunk): writers emit it empty, and LoadFromFile skips an
/// empty slot but refuses one holding rows.
inline constexpr uint32_t kTsunamiFormatVersion = 3;

/// Appends primitive values to an in-memory buffer in little-endian order.
/// Integers use LEB128 varints (signed values zigzag encoded), so sorted or
/// small-magnitude columns stay compact.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutFixed32(uint32_t v);
  void PutFixed64(uint64_t v);
  void PutVarU64(uint64_t v);
  void PutVarI64(int64_t v);  // Zigzag encoded.
  void PutDouble(double v);
  void PutString(std::string_view s);

  void PutValueVec(const std::vector<Value>& values);
  void PutIntVec(const std::vector<int>& values);
  void PutDoubleVec(const std::vector<double>& values);

  const std::string& buffer() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }

 private:
  std::string buffer_;
};

/// Reads values written by BinaryWriter. Every accessor returns a default
/// value and latches `ok() == false` on underflow or malformed input; the
/// caller checks `ok()` once at the end of a structure.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  uint8_t GetU8();
  bool GetBool() { return GetU8() != 0; }
  uint32_t GetFixed32();
  uint64_t GetFixed64();
  uint64_t GetVarU64();
  int64_t GetVarI64();
  double GetDouble();
  std::string GetString();

  bool GetValueVec(std::vector<Value>* out);
  bool GetIntVec(std::vector<int>* out);
  bool GetDoubleVec(std::vector<double>* out);

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

  /// Marks the stream corrupt (used by callers on semantic errors, e.g. an
  /// out-of-range enum value).
  void MarkCorrupt() { ok_ = false; }

  /// Framed-file format version this payload was written under. Defaults to
  /// the current version; ReadFramedFile's caller sets it for older files so
  /// structures with versioned layouts (EncodedColumn) can branch.
  void set_version(uint32_t v) { version_ = v; }
  uint32_t version() const { return version_; }

 private:
  /// Caps element counts read from the stream so a corrupt length prefix
  /// cannot trigger a huge allocation.
  static constexpr uint64_t kMaxElements = uint64_t{1} << 40;

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
  uint32_t version_ = kTsunamiFormatVersion;
};

/// Framed file kinds (one per top-level object we persist).
enum class FileKind : uint32_t {
  kDataset = 1,
  kWorkload = 2,
  kTsunamiIndex = 3,
  /// The durability manifest (src/durability): checkpoint version, snapshot
  /// file, WAL replay cursor, and the live WAL segment range.
  kDurabilityManifest = 4,
};

/// Typed failure cause for ReadFramedFile (and the WAL record reader in
/// src/durability/wal.h, which reuses the same codes), so callers and tests
/// can react to *why* bytes were rejected without parsing the human-readable
/// message. The WAL layer leans on the kTruncated / kChecksumMismatch
/// distinction: a truncated tail is the expected shape of a crash mid-write
/// (replay ends cleanly there), while a checksum mismatch on a *complete*
/// frame means the bytes themselves are corrupt. Every failure message
/// includes the byte offset at which validation failed.
enum class FileError : uint8_t {
  kNone = 0,
  kIoError,            // Missing file / unreadable.
  kBadMagic,           // Not a tsunami file.
  kBadVersion,         // Format version we cannot read.
  kBadKind,            // Frame holds a different object kind.
  kTruncated,          // Short read: header or payload cut off.
  kChecksumMismatch,   // Payload bytes fail the frame CRC / record hash.
};

const char* ToString(FileError error);

/// Writes `payload` to `path` framed as:
///   magic "TSNM" | format version | kind | payload length | crc32 | payload
/// Returns false (with `error` set) on I/O failure.
bool WriteFramedFile(const std::string& path, FileKind kind,
                     std::string_view payload, std::string* error);

/// Reads and validates a framed file; fails on missing file, bad magic,
/// unsupported version, kind mismatch, truncation, or checksum mismatch.
/// On failure `code` (when non-null) carries the typed cause; on success it
/// is kNone and `version` (when non-null) carries the file's format version
/// — pass it to BinaryReader::set_version before decoding the payload.
bool ReadFramedFile(const std::string& path, FileKind kind,
                    std::string* payload, std::string* error,
                    FileError* code = nullptr, uint32_t* version = nullptr);

// --- Durable writes (the WAL / checkpoint substrate) -----------------------
// A plain WriteFramedFile leaves the bytes in the page cache: a crash can
// lose or tear them. The durable variants push bytes to stable storage and
// make the *rename* the commit point, so a reader never observes a
// half-written file — it sees the old version or the new one.

/// fsync (fdatasync where available) an existing file by path.
bool FsyncPath(const std::string& path, std::string* error = nullptr);

/// fsync a directory, making completed renames/creates/unlinks in it
/// durable. Required after the rename in an atomic-replace sequence.
bool FsyncDir(const std::string& dir, std::string* error = nullptr);

/// Atomically replaces `path` with a framed file holding `payload`:
/// write to "<path>.tmp", fsync the file, rename over `path`, fsync the
/// parent directory. On failure the previous `path` (if any) is intact.
bool WriteFramedFileDurable(const std::string& path, FileKind kind,
                            std::string_view payload, std::string* error);

}  // namespace tsunami

#endif  // TSUNAMI_IO_SERIALIZER_H_
