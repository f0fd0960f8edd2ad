#include "src/io/serializer.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>

#include "src/common/fault_injection.h"

namespace tsunami {

namespace {

constexpr uint32_t kMagic = 0x544E534D;  // "TSNM" read little-endian.
// Oldest format version ReadFramedFile still accepts (see the version
// history on kTsunamiFormatVersion in the header).
constexpr uint32_t kMinFormatVersion = 2;

std::array<uint32_t, 256> BuildCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const std::array<uint32_t, 256> table = BuildCrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (char ch : data) {
    crc = table[(crc ^ static_cast<uint8_t>(ch)) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

constexpr uint64_t kXxPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kXxPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kXxPrime5 = 0x27D4EB2F165667C5ull;

uint64_t XxRound(uint64_t acc, uint64_t input) {
  acc += input * kXxPrime2;
  acc = std::rotl(acc, 31);
  return acc * kXxPrime1;
}

uint64_t XxMergeRound(uint64_t acc, uint64_t val) {
  acc ^= XxRound(0, val);
  return acc * kXxPrime1 + kXxPrime4;
}

}  // namespace

uint64_t XxHash64(std::string_view data, uint64_t seed) {
  const char* p = data.data();
  const char* const end = p + data.size();
  uint64_t h;
  if (data.size() >= 32) {
    uint64_t v1 = seed + kXxPrime1 + kXxPrime2;
    uint64_t v2 = seed + kXxPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kXxPrime1;
    const char* const limit = end - 32;
    do {
      v1 = XxRound(v1, LoadFixed<uint64_t>(p));
      v2 = XxRound(v2, LoadFixed<uint64_t>(p + 8));
      v3 = XxRound(v3, LoadFixed<uint64_t>(p + 16));
      v4 = XxRound(v4, LoadFixed<uint64_t>(p + 24));
      p += 32;
    } while (p <= limit);
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = XxMergeRound(h, v1);
    h = XxMergeRound(h, v2);
    h = XxMergeRound(h, v3);
    h = XxMergeRound(h, v4);
  } else {
    h = seed + kXxPrime5;
  }
  h += static_cast<uint64_t>(data.size());
  while (p + 8 <= end) {
    h ^= XxRound(0, LoadFixed<uint64_t>(p));
    h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= static_cast<uint64_t>(LoadFixed<uint32_t>(p)) * kXxPrime1;
    h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  while (p < end) {
    h ^= static_cast<uint8_t>(*p) * kXxPrime5;
    h = std::rotl(h, 11) * kXxPrime1;
    ++p;
  }
  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

void BinaryWriter::PutString(std::string_view s) {
  PutVarU64(s.size());
  buffer_.append(s.data(), s.size());
}

void BinaryWriter::PutValueVec(const std::vector<Value>& values) {
  PutVarU64(values.size());
  for (Value v : values) PutVarI64(v);
}

void BinaryWriter::PutIntVec(const std::vector<int>& values) {
  PutVarU64(values.size());
  for (int v : values) PutVarI64(v);
}

void BinaryWriter::PutDoubleVec(const std::vector<double>& values) {
  PutVarU64(values.size());
  for (double v : values) PutDouble(v);
}

void BinaryWriter::PutRowBatch(const std::vector<std::vector<Value>>& rows) {
  size_t values = 0;
  for (const std::vector<Value>& row : rows) values += row.size();
  // Encode into worst-case scratch, then append only the bytes used: the
  // worst case is several times the encoded size, and callers hold
  // batches (WAL queues, client send buffers, pre-encoded load). Sizing the
  // batch exactly first would save the copy but costs more than it: a
  // second pass over every value.
  const auto scratch = std::make_unique_for_overwrite<char[]>(
      (2 + values) * kMaxVarintBytes);
  char* p = scratch.get();
  p = StoreVarint(p, rows.size());
  p = StoreVarint(p, rows.empty() ? 0 : rows.front().size());
  for (const std::vector<Value>& row : rows) {
    for (Value v : row) p = StoreVarint(p, ZigzagEncode(v));
  }
  buffer_.append(scratch.get(), static_cast<size_t>(p - scratch.get()));
}

uint64_t BinaryReader::GetVarU64() {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    uint8_t byte = GetU8();
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return ok_ ? v : 0;
  }
  ok_ = false;  // Varint longer than kMaxVarintBytes.
  return 0;
}

std::string BinaryReader::GetString() {
  const uint64_t n = GetVarU64();
  const char* p = Take(n);
  return p != nullptr ? std::string(p, n) : std::string();
}

bool BinaryReader::GetValueVec(std::vector<Value>* out) {
  uint64_t n = GetVarU64();
  // A varint needs at least one byte per element: cheap truncation guard.
  if (!ok_ || n > kMaxElements || n > remaining()) {
    ok_ = false;
    return false;
  }
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n && ok_; ++i) out->push_back(GetVarI64());
  return ok_;
}

bool BinaryReader::GetIntVec(std::vector<int>* out) {
  uint64_t n = GetVarU64();
  if (!ok_ || n > kMaxElements || n > remaining()) {
    ok_ = false;
    return false;
  }
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n && ok_; ++i) {
    out->push_back(static_cast<int>(GetVarI64()));
  }
  return ok_;
}

bool BinaryReader::GetDoubleVec(std::vector<double>* out) {
  uint64_t n = GetVarU64();
  if (!ok_ || n > remaining() / sizeof(double)) {
    ok_ = false;
    return false;
  }
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n && ok_; ++i) out->push_back(GetDouble());
  return ok_;
}

bool BinaryReader::GetRowBatch(uint64_t max_rows, uint64_t max_dims,
                               std::vector<std::vector<Value>>* out) {
  const uint64_t rows = GetVarU64();
  const uint64_t dims = GetVarU64();
  if (!ok_ || rows > max_rows || dims > max_dims ||
      (rows > 0 && (dims == 0 || dims > remaining() / rows))) {
    ok_ = false;
    return false;
  }
  std::vector<std::vector<Value>> batch(rows, std::vector<Value>(dims));
  for (std::vector<Value>& row : batch) {
    for (Value& v : row) v = GetVarI64();
  }
  if (!ok_) return false;
  *out = std::move(batch);
  return true;
}

const char* ToString(FileError error) {
  switch (error) {
    case FileError::kNone: return "none";
    case FileError::kIoError: return "io_error";
    case FileError::kBadMagic: return "bad_magic";
    case FileError::kBadVersion: return "bad_version";
    case FileError::kBadKind: return "bad_kind";
    case FileError::kTruncated: return "truncated";
    case FileError::kChecksumMismatch: return "checksum_mismatch";
  }
  return "unknown";
}

bool WriteFramedFile(const std::string& path, FileKind kind,
                     std::string_view payload, std::string* error) {
  BinaryWriter header;
  header.PutFixed32(kMagic);
  header.PutFixed32(kTsunamiFormatVersion);
  header.PutFixed32(static_cast<uint32_t>(kind));
  header.PutFixed64(payload.size());
  header.PutFixed32(Crc32(payload));

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  bool ok =
      std::fwrite(header.buffer().data(), 1, header.buffer().size(), f) ==
          header.buffer().size() &&
      std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok && error != nullptr) *error = "short write to '" + path + "'";
  return ok;
}

bool ReadFramedFile(const std::string& path, FileKind kind,
                    std::string* payload, std::string* error,
                    FileError* code, uint32_t* version_out) {
  if (code != nullptr) *code = FileError::kNone;
  auto fail = [error, code](FileError c, const std::string& message) {
    if (error != nullptr) *error = message;
    if (code != nullptr) *code = c;
    return false;
  };
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return fail(FileError::kIoError, "cannot open '" + path + "'");
  }
  std::string contents;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    contents.append(chunk, n);
  }
  std::fclose(f);

  // Fault site: simulate a short read (a crash mid-write, a torn copy). The
  // truncation checks below must turn this into a typed error, never UB.
  // The armed spec's `param` is the exact byte offset to cut at (tests sweep
  // it across every section boundary); unset keeps the halve-the-file
  // default.
  if (TSUNAMI_FAULT_FIRES("io.short_read", contents.size())) {
    int64_t cut = fault::Param("io.short_read");
    if (cut < 0 || cut > static_cast<int64_t>(contents.size())) {
      cut = static_cast<int64_t>(contents.size() / 2);
    }
    contents.resize(static_cast<size_t>(cut));
  }

  constexpr size_t kHeaderSize = 4 + 4 + 4 + 8 + 4;
  if (contents.size() < kHeaderSize) {
    return fail(FileError::kTruncated,
                "'" + path + "' is truncated at offset " +
                    std::to_string(contents.size()) + " (header needs " +
                    std::to_string(kHeaderSize) + " bytes)");
  }
  BinaryReader header(std::string_view(contents).substr(0, kHeaderSize));
  if (header.GetFixed32() != kMagic) {
    return fail(FileError::kBadMagic,
                "'" + path + "' is not a tsunami file (bad magic)");
  }
  uint32_t version = header.GetFixed32();
  if (version < kMinFormatVersion || version > kTsunamiFormatVersion) {
    return fail(FileError::kBadVersion,
                "'" + path + "' has unsupported format version " +
                    std::to_string(version));
  }
  uint32_t got_kind = header.GetFixed32();
  if (got_kind != static_cast<uint32_t>(kind)) {
    return fail(FileError::kBadKind,
                "'" + path + "' holds object kind " +
                    std::to_string(got_kind) + ", expected " +
                    std::to_string(static_cast<uint32_t>(kind)));
  }
  uint64_t payload_size = header.GetFixed64();
  uint32_t crc = header.GetFixed32();
  if (contents.size() - kHeaderSize != payload_size) {
    return fail(FileError::kTruncated,
                "'" + path + "' is truncated at offset " +
                    std::to_string(contents.size()) + " (header declares " +
                    std::to_string(payload_size) + " payload bytes at offset " +
                    std::to_string(kHeaderSize) + ")");
  }
  std::string_view body = std::string_view(contents).substr(kHeaderSize);
  if (Crc32(body) != crc) {
    return fail(FileError::kChecksumMismatch,
                "'" + path + "' is corrupt (payload checksum mismatch over " +
                    "bytes [" + std::to_string(kHeaderSize) + ", " +
                    std::to_string(contents.size()) + "))");
  }
  payload->assign(body);
  if (version_out != nullptr) *version_out = version;
  return true;
}

namespace {

bool FsyncFd(int fd) {
#if defined(__linux__)
  return ::fdatasync(fd) == 0;
#else
  return ::fsync(fd) == 0;
#endif
}

}  // namespace

bool FsyncPath(const std::string& path, std::string* error) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot open '" + path + "' for fsync: " + std::strerror(errno);
    }
    return false;
  }
  bool ok = FsyncFd(fd);
  if (!ok && error != nullptr) {
    *error = "fsync of '" + path + "' failed: " + std::strerror(errno);
  }
  ::close(fd);
  return ok;
}

bool FsyncDir(const std::string& dir, std::string* error) {
  int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "cannot open directory '" + dir +
               "' for fsync: " + std::strerror(errno);
    }
    return false;
  }
  // Directories want full fsync: the metadata (the new directory entry) is
  // the payload.
  bool ok = ::fsync(fd) == 0;
  if (!ok && error != nullptr) {
    *error = "fsync of directory '" + dir + "' failed: " + std::strerror(errno);
  }
  ::close(fd);
  return ok;
}

bool WriteFramedFileDurable(const std::string& path, FileKind kind,
                            std::string_view payload, std::string* error) {
  const std::string tmp = path + ".tmp";
  if (!WriteFramedFile(tmp, kind, payload, error)) return false;
  if (!FsyncPath(tmp, error)) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) {
      *error = "cannot rename '" + tmp + "' to '" + path +
               "': " + std::strerror(errno);
    }
    std::remove(tmp.c_str());
    return false;
  }
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  return FsyncDir(dir, error);
}

}  // namespace tsunami
