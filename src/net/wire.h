// Wire protocol for the tsunami network front end: length-prefixed binary
// frames over a byte stream (TCP), shared by TsunamiServer and
// TsunamiClient.
//
// Every frame is a fixed 32-byte little-endian header followed by
// `payload_len` payload bytes:
//
//   offset  size  field
//        0     4  magic            "TSNF" (0x464E5354 read little-endian)
//        4     2  version          protocol version (kWireVersion)
//        6     1  type             FrameType
//        7     1  flags            reserved, must be 0
//        8     8  request_id       client-chosen; echoed on the response
//       16     4  payload_len      bytes following the header
//       20     4  priority         int32; request frames only
//       24     8  deadline_micros  remaining deadline budget at send time
//                                  (0 = none); request frames only
//
// Requests are pipelined: a client may send many kQuery frames before
// reading any response, and responses come back in *completion* order, not
// submission order — the request_id is the correlation key. Payloads are
// BinaryWriter varint encodings (src/io/serializer.h), so a torn or
// malformed payload is detected by the reader's latched-ok protocol and
// answered with a typed kError frame, never a crash.
//
// The header is deliberately parseable without the payload: the server
// rejects an oversized `payload_len` before buffering a single payload
// byte, and a bad magic/version fails the connection closed immediately
// (stream sync is gone; nothing after it can be trusted).
#ifndef TSUNAMI_NET_WIRE_H_
#define TSUNAMI_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/types.h"
#include "src/serve/query_service.h"

namespace tsunami {
namespace net {

inline constexpr uint32_t kFrameMagic = 0x464E5354;  // "TSNF" little-endian.
inline constexpr uint16_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderSize = 32;

/// Hard ceiling a conforming peer may declare in `payload_len`; servers may
/// configure a lower one. Anything above is an attack or corruption, not a
/// query.
inline constexpr uint32_t kMaxFramePayload = 8u << 20;

enum class FrameType : uint8_t {
  kQuery = 1,   // client -> server: EncodeQueryPayload
  kResult = 2,  // server -> client: EncodeResultPayload
  kError = 3,   // server -> client: EncodeErrorPayload
  kPing = 4,    // either direction; answered with kPong, same request_id
  kPong = 5,
  kInsert = 6,     // client -> server: EncodeInsertPayload (row batch)
  kInsertAck = 7,  // server -> client: EncodeInsertAckPayload
};

/// Typed wire-level error causes carried by kError frames (and produced
/// locally by the client for transport failures).
enum class WireError : uint8_t {
  kNone = 0,
  /// Frame payload failed to decode. The frame boundary was still sound, so
  /// the connection stays open.
  kMalformedFrame = 1,
  /// Declared payload_len above the server's cap. Connection closes (the
  /// server refuses to buffer or skip the body).
  kOversizedFrame = 2,
  /// Unknown protocol version. Connection closes.
  kBadVersion = 3,
  /// Frame type the receiver does not accept (e.g. kResult sent to a
  /// server). Connection stays open.
  kBadType = 4,
  /// Admission control: service queue full (AdmissionOutcome::kQueueFull).
  /// Retryable after backoff.
  kQueueFull = 5,
  /// Admission control: deadline infeasible. Not retryable with the same
  /// deadline.
  kDeadlineInfeasible = 6,
  /// Per-client in-flight cap (wire or service layer). Retryable: room
  /// opens as this client's own queries finish.
  kClientBusy = 7,
  /// Server is draining; it finishes in-flight work but admits nothing
  /// new. Retryable against another instance, not this one.
  kDraining = 8,
  /// kInsert sent to a server without an ingest-capable store. Not
  /// retryable here: this instance will never accept writes.
  kReadOnly = 9,
  /// Durable mode only: the batch could not be made durable (WAL failed —
  /// torn write, fsync failure). Fail closed: the rows were NOT acked and
  /// the store is write-disabled. Not retryable against this instance, and
  /// a retry elsewhere risks a duplicate — the rows may still be visible
  /// (and may even survive) here.
  kDurabilityFailed = 10,
  /// Resource governor refused the work *before* admission (memory budget,
  /// WAL-disk budget, or a latched ENOSPC store): nothing was applied or
  /// logged, so a retry after backoff is safe — the store re-arms itself
  /// once pressure clears (backlog folded, disk space freed).
  kResourceExhausted = 11,
};

const char* ToString(WireError error);

/// Errors a client may retry (with backoff) without risking a duplicate
/// answer or hammering a dead path: the request was *not* admitted.
bool IsRetryable(WireError error);

struct FrameHeader {
  uint16_t version = kWireVersion;
  FrameType type = FrameType::kQuery;
  uint8_t flags = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
  int32_t priority = 0;
  uint64_t deadline_micros = 0;
};

/// Appends header + payload to `out` as one encoded frame.
void AppendFrame(const FrameHeader& header, std::string_view payload,
                 std::string* out);

enum class HeaderParse : uint8_t {
  kOk = 0,
  kNeedMore,    // Fewer than kFrameHeaderSize bytes buffered.
  kBadMagic,    // Not a tsunami frame; stream sync is lost.
  kBadVersion,  // Protocol version the receiver cannot speak.
};

/// Parses the frame header at the front of `buffer` (payload not required
/// to be buffered yet).
HeaderParse ParseFrameHeader(std::string_view buffer, FrameHeader* out);

// --- Payload codecs (BinaryWriter/BinaryReader varint encodings) ---------

std::string EncodeQueryPayload(const Query& query);
/// Strict decode: returns false on truncation, trailing bytes, out-of-range
/// enum values, or absurd element counts. `*out` is unspecified on failure.
bool DecodeQueryPayload(std::string_view payload, Query* out);

/// A completed (or fail-closed) query answer plus its serving metadata.
struct ResultPayload {
  QueryOutcome outcome = QueryOutcome::kCompleted;
  double server_latency_seconds = 0.0;
  QueryResult result;
};

std::string EncodeResultPayload(const ResultPayload& payload);
bool DecodeResultPayload(std::string_view payload, ResultPayload* out);

std::string EncodeErrorPayload(WireError error, std::string_view message);
bool DecodeErrorPayload(std::string_view payload, WireError* error,
                        std::string* message);

/// Row batch for a kInsert frame: every row carries one Value per store
/// dimension, in src/io's row-batch codec (BinaryWriter::PutRowBatch, the
/// same bytes a WAL record logs). Bounded (kMaxInsertRows / kMaxInsertDims,
/// and rows x dims by the payload's size) so a hostile count can never
/// balloon the decode.
inline constexpr int64_t kMaxInsertRows = 65536;
inline constexpr int64_t kMaxInsertDims = 4096;

std::string EncodeInsertPayload(const std::vector<std::vector<Value>>& rows);
bool DecodeInsertPayload(std::string_view payload,
                         std::vector<std::vector<Value>>* out);

/// kInsertAck: rows the server appended (all-or-nothing today) and the
/// store version observed after the append — a client can tell when its
/// writes have been folded by watching the version advance.
struct InsertAckPayload {
  int64_t accepted = 0;
  uint64_t store_version = 0;
};

std::string EncodeInsertAckPayload(const InsertAckPayload& payload);
bool DecodeInsertAckPayload(std::string_view payload, InsertAckPayload* out);

}  // namespace net
}  // namespace tsunami

#endif  // TSUNAMI_NET_WIRE_H_
