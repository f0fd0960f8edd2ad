#include "src/net/wire.h"

#include "src/io/serializer.h"

namespace tsunami {
namespace net {

namespace {

/// Upper bound on filters / aggregates one query frame may carry. Far above
/// anything the planner produces; a count beyond it is corruption, and
/// rejecting it here keeps a malformed length prefix from driving a huge
/// allocation.
constexpr uint64_t kMaxQueryFilters = 4096;
constexpr uint64_t kMaxWireAggs = 4096;
constexpr uint64_t kMaxErrorMessage = 4096;

}  // namespace

const char* ToString(WireError error) {
  switch (error) {
    case WireError::kNone:
      return "none";
    case WireError::kMalformedFrame:
      return "malformed-frame";
    case WireError::kOversizedFrame:
      return "oversized-frame";
    case WireError::kBadVersion:
      return "bad-version";
    case WireError::kBadType:
      return "bad-type";
    case WireError::kQueueFull:
      return "queue-full";
    case WireError::kDeadlineInfeasible:
      return "deadline-infeasible";
    case WireError::kClientBusy:
      return "client-busy";
    case WireError::kDraining:
      return "draining";
    case WireError::kReadOnly:
      return "read-only";
    case WireError::kDurabilityFailed:
      return "durability-failed";
    case WireError::kResourceExhausted:
      return "resource-exhausted";
  }
  return "unknown-wire-error";
}

bool IsRetryable(WireError error) {
  switch (error) {
    case WireError::kQueueFull:
    case WireError::kClientBusy:
    case WireError::kDraining:
    // Refused before admission: nothing was applied or logged, so a retry
    // cannot duplicate work; the store re-arms itself as pressure clears.
    case WireError::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

void AppendFrame(const FrameHeader& header, std::string_view payload,
                 std::string* out) {
  char h[kFrameHeaderSize];
  StoreFixed<uint32_t>(h, kFrameMagic);
  StoreFixed<uint16_t>(h + 4, header.version);
  h[6] = static_cast<char>(header.type);
  h[7] = static_cast<char>(header.flags);
  StoreFixed<uint64_t>(h + 8, header.request_id);
  StoreFixed<uint32_t>(h + 16, static_cast<uint32_t>(payload.size()));
  StoreFixed<uint32_t>(h + 20, static_cast<uint32_t>(header.priority));
  StoreFixed<uint64_t>(h + 24, header.deadline_micros);
  out->append(h, kFrameHeaderSize);
  out->append(payload.data(), payload.size());
}

HeaderParse ParseFrameHeader(std::string_view buffer, FrameHeader* out) {
  if (buffer.size() < kFrameHeaderSize) return HeaderParse::kNeedMore;
  const char* p = buffer.data();
  if (LoadFixed<uint32_t>(p) != kFrameMagic) return HeaderParse::kBadMagic;
  out->version = LoadFixed<uint16_t>(p + 4);
  if (out->version != kWireVersion) return HeaderParse::kBadVersion;
  out->type = static_cast<FrameType>(static_cast<uint8_t>(p[6]));
  out->flags = static_cast<uint8_t>(p[7]);
  out->request_id = LoadFixed<uint64_t>(p + 8);
  out->payload_len = LoadFixed<uint32_t>(p + 16);
  out->priority = static_cast<int32_t>(LoadFixed<uint32_t>(p + 20));
  out->deadline_micros = LoadFixed<uint64_t>(p + 24);
  return HeaderParse::kOk;
}

std::string EncodeQueryPayload(const Query& query) {
  BinaryWriter w;
  w.PutVarU64(query.filters.size());
  for (const Predicate& p : query.filters) {
    w.PutVarI64(p.dim);
    w.PutVarI64(p.lo);
    w.PutVarI64(p.hi);
  }
  w.PutVarU64(static_cast<uint64_t>(query.num_aggs()));
  for (int i = 0; i < query.num_aggs(); ++i) {
    const AggregateSpec spec = query.agg_spec(i);
    w.PutU8(static_cast<uint8_t>(spec.op));
    w.PutVarI64(spec.column);
  }
  w.PutVarI64(query.type);
  return w.Release();
}

bool DecodeQueryPayload(std::string_view payload, Query* out) {
  BinaryReader r(payload);
  Query q;
  const uint64_t num_filters = r.GetVarU64();
  if (!r.ok() || num_filters > kMaxQueryFilters) return false;
  q.filters.reserve(num_filters);
  for (uint64_t i = 0; i < num_filters && r.ok(); ++i) {
    Predicate p;
    p.dim = static_cast<int>(r.GetVarI64());
    p.lo = r.GetVarI64();
    p.hi = r.GetVarI64();
    if (p.dim < 0) return false;
    q.filters.push_back(p);
  }
  const uint64_t num_aggs = r.GetVarU64();
  if (!r.ok() || num_aggs == 0 || num_aggs > kMaxWireAggs) return false;
  std::vector<AggregateSpec> specs;
  specs.reserve(num_aggs);
  for (uint64_t i = 0; i < num_aggs && r.ok(); ++i) {
    const uint8_t op = r.GetU8();
    if (op > static_cast<uint8_t>(AggKind::kAvg)) return false;
    AggregateSpec spec;
    spec.op = static_cast<AggKind>(op);
    spec.column = static_cast<int>(r.GetVarI64());
    if (spec.column < 0) return false;
    specs.push_back(spec);
  }
  q.type = static_cast<int>(r.GetVarI64());
  if (!r.ok() || !r.AtEnd()) return false;
  q.SetAggregates(std::move(specs));
  *out = q;
  return true;
}

std::string EncodeResultPayload(const ResultPayload& payload) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(payload.outcome));
  w.PutDouble(payload.server_latency_seconds);
  const QueryResult& r = payload.result;
  w.PutVarI64(r.agg);
  w.PutVarI64(r.scanned);
  w.PutVarI64(r.matched);
  w.PutVarI64(r.cell_ranges);
  w.PutBool(r.degraded);
  w.PutVarI64(r.quarantined_blocks);
  w.PutVarU64(r.extra.size());
  for (int64_t v : r.extra) w.PutVarI64(v);
  return w.Release();
}

bool DecodeResultPayload(std::string_view payload, ResultPayload* out) {
  BinaryReader r(payload);
  ResultPayload p;
  const uint8_t outcome = r.GetU8();
  if (outcome > static_cast<uint8_t>(QueryOutcome::kAlreadyConsumed)) {
    return false;
  }
  p.outcome = static_cast<QueryOutcome>(outcome);
  p.server_latency_seconds = r.GetDouble();
  p.result.agg = r.GetVarI64();
  p.result.scanned = r.GetVarI64();
  p.result.matched = r.GetVarI64();
  p.result.cell_ranges = r.GetVarI64();
  p.result.degraded = r.GetBool();
  p.result.quarantined_blocks = r.GetVarI64();
  const uint64_t num_extra = r.GetVarU64();
  if (!r.ok() || num_extra > kMaxWireAggs) return false;
  p.result.extra.reserve(num_extra);
  for (uint64_t i = 0; i < num_extra && r.ok(); ++i) {
    p.result.extra.push_back(r.GetVarI64());
  }
  if (!r.ok() || !r.AtEnd()) return false;
  *out = std::move(p);
  return true;
}

std::string EncodeErrorPayload(WireError error, std::string_view message) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(error));
  w.PutString(message.substr(0, kMaxErrorMessage));
  return w.Release();
}

bool DecodeErrorPayload(std::string_view payload, WireError* error,
                        std::string* message) {
  BinaryReader r(payload);
  const uint8_t code = r.GetU8();
  if (code > static_cast<uint8_t>(WireError::kResourceExhausted)) return false;
  std::string text = r.GetString();
  if (!r.ok() || !r.AtEnd()) return false;
  *error = static_cast<WireError>(code);
  if (message != nullptr) *message = std::move(text);
  return true;
}

std::string EncodeInsertPayload(const std::vector<std::vector<Value>>& rows) {
  BinaryWriter w;
  w.PutRowBatch(rows);
  return w.Release();
}

bool DecodeInsertPayload(std::string_view payload,
                         std::vector<std::vector<Value>>* out) {
  // An empty batch is legal (a client-side flush with nothing buffered); a
  // row with zero columns is not (GetRowBatch refuses it).
  BinaryReader r(payload);
  std::vector<std::vector<Value>> rows;
  if (!r.GetRowBatch(kMaxInsertRows, kMaxInsertDims, &rows) || !r.AtEnd()) {
    return false;
  }
  *out = std::move(rows);
  return true;
}

std::string EncodeInsertAckPayload(const InsertAckPayload& payload) {
  BinaryWriter w;
  w.PutVarI64(payload.accepted);
  w.PutVarU64(payload.store_version);
  return w.Release();
}

bool DecodeInsertAckPayload(std::string_view payload, InsertAckPayload* out) {
  BinaryReader r(payload);
  InsertAckPayload p;
  p.accepted = r.GetVarI64();
  p.store_version = r.GetVarU64();
  if (!r.ok() || !r.AtEnd() || p.accepted < 0) return false;
  *out = p;
  return true;
}

}  // namespace net
}  // namespace tsunami
