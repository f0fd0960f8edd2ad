// Network front-end suite: wire codec round trips and strict-decode
// rejections, the timer wheel, and live loopback servers — smoke
// equivalence against Execute, pipelined out-of-order completion,
// malformed/oversized/bad-version/bad-type typed errors, per-connection and
// per-client caps, queue-full retry, deadline propagation, backpressure and
// stalled-reader eviction, idle eviction, graceful drain, answers that
// wake the loop instead of waiting for its tick, and (under
// -DTSUNAMI_FAULT_INJECTION=ON) the injected net.* fault sites.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/common/fault_injection.h"
#include "src/common/random.h"
#include "src/common/stats.h"
#include "src/ingest/ingest_store.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/serve/query_service.h"
#include "tests/test_support.h"

namespace tsunami {
namespace {

using net::ClientOptions;
using net::ClientResult;
using net::FrameHeader;
using net::FrameType;
using net::HeaderParse;
using net::ServerOptions;
using net::TimerWheel;
using net::TsunamiClient;
using net::TsunamiServer;
using net::WireError;

// ---- Codec ----------------------------------------------------------------

TEST(WireCodec, FrameHeaderRoundTrip) {
  FrameHeader in;
  in.type = FrameType::kQuery;
  in.request_id = 0x1122334455667788ULL;
  in.priority = -7;
  in.deadline_micros = 1500000;
  std::string buf;
  net::AppendFrame(in, "payload", &buf);
  ASSERT_EQ(buf.size(), net::kFrameHeaderSize + 7);

  FrameHeader out;
  ASSERT_EQ(net::ParseFrameHeader(buf, &out), HeaderParse::kOk);
  EXPECT_EQ(out.type, FrameType::kQuery);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.payload_len, 7u);
  EXPECT_EQ(out.priority, -7);
  EXPECT_EQ(out.deadline_micros, 1500000u);

  // Short buffers ask for more; corrupt magic / version are typed.
  FrameHeader ignored;
  EXPECT_EQ(net::ParseFrameHeader(std::string_view(buf).substr(0, 31),
                                  &ignored),
            HeaderParse::kNeedMore);
  std::string bad_magic = buf;
  bad_magic[0] = 'X';
  EXPECT_EQ(net::ParseFrameHeader(bad_magic, &ignored),
            HeaderParse::kBadMagic);
  std::string bad_version = buf;
  bad_version[4] = 99;
  EXPECT_EQ(net::ParseFrameHeader(bad_version, &ignored),
            HeaderParse::kBadVersion);
}

TEST(WireCodec, GoldenFrameHeaderBytes) {
  FrameHeader in;
  in.type = FrameType::kQuery;
  in.request_id = 0x1122334455667788ULL;
  in.priority = -7;
  in.deadline_micros = 1500000;
  std::string buf;
  net::AppendFrame(in, "payload", &buf);
  EXPECT_EQ(Hex(buf),
            "54534e46"           // magic "TSNF"
            "0100"               // version
            "01"                 // type kQuery
            "00"                 // flags
            "8877665544332211"   // request_id
            "07000000"           // payload_len
            "f9ffffff"           // priority -7
            "60e3160000000000"   // deadline_micros 1500000
            "7061796c6f6164");   // payload
}

TEST(WireCodec, GoldenPayloadBytes) {
  Query q;
  q.filters.push_back(Predicate{1, -5, 300});
  q.SetAggregates({{AggKind::kSum, 3}});
  q.type = 2;
  EXPECT_EQ(Hex(net::EncodeQueryPayload(q)),
            "01"        // one filter
            "02"        // dim 1
            "09"        // lo -5
            "d804"      // hi 300
            "01"        // one aggregate
            "0106"      // kSum over column 3
            "04");      // type 2

  net::ResultPayload result;
  result.outcome = QueryOutcome::kShed;
  result.server_latency_seconds = 0.25;
  result.result.agg = -42;
  result.result.scanned = 1000;
  result.result.matched = 17;
  result.result.cell_ranges = 3;
  result.result.degraded = true;
  result.result.quarantined_blocks = 2;
  result.result.extra = {7, -9};
  EXPECT_EQ(Hex(net::EncodeResultPayload(result)),
            "03"                // kShed
            "000000000000d03f"  // latency 0.25 s
            "53"                // agg -42
            "d00f"              // scanned 1000
            "22"                // matched 17
            "06"                // cell_ranges 3
            "01"                // degraded
            "04"                // quarantined_blocks 2
            "02"                // two extra aggregates
            "0e11");            // 7, -9

  EXPECT_EQ(Hex(net::EncodeInsertPayload(
                {{1, -2, 300000}, {4, 5, 6}, {-7, 8, 9}})),
            "03"            // rows
            "03"            // dims
            "0203c0cf24"    // 1, -2, 300000
            "080a0c"        // 4, 5, 6
            "0d1012");      // -7, 8, 9
  EXPECT_EQ(Hex(net::EncodeInsertPayload({})), "0000");  // rows 0, dims 0

  EXPECT_EQ(Hex(net::EncodeInsertAckPayload({12345, 42})),
            "f2c001"   // accepted 12345
            "2a");     // store_version 42

  EXPECT_EQ(Hex(net::EncodeErrorPayload(WireError::kQueueFull, "try later")),
            "05"                      // kQueueFull
            "09747279206c61746572");  // "try later"
}

TEST(WireCodec, QueryPayloadRoundTrip) {
  Query q;
  q.filters.push_back(Predicate{0, -100, 100});
  q.filters.push_back(Predicate{2, 5, 5});
  q.SetAggregates({{AggKind::kSum, 1}, {AggKind::kMax, 2}});
  q.type = 3;
  const std::string payload = net::EncodeQueryPayload(q);

  Query out;
  ASSERT_TRUE(net::DecodeQueryPayload(payload, &out));
  ASSERT_EQ(out.filters.size(), 2u);
  EXPECT_EQ(out.filters[0].dim, 0);
  EXPECT_EQ(out.filters[0].lo, -100);
  EXPECT_EQ(out.filters[1].hi, 5);
  ASSERT_EQ(out.num_aggs(), 2);
  EXPECT_EQ(out.agg_spec(0).op, AggKind::kSum);
  EXPECT_EQ(out.agg_spec(1).op, AggKind::kMax);
  EXPECT_EQ(out.type, 3);
  EXPECT_TRUE(FingerprintEquivalent(q, out));
}

TEST(WireCodec, QueryPayloadStrictDecodeRejectsCorruption) {
  Query q;
  q.filters.push_back(Predicate{1, 10, 20});
  q.SetAggregates({{AggKind::kAvg, 2}});
  const std::string payload = net::EncodeQueryPayload(q);
  Query out;
  // Every truncation point fails cleanly (never crashes, never half-fills).
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(net::DecodeQueryPayload(
        std::string_view(payload).substr(0, cut), &out))
        << "cut at " << cut;
  }
  // Trailing garbage is rejected too (a frame is exactly one query).
  EXPECT_FALSE(net::DecodeQueryPayload(payload + "x", &out));
  // An out-of-range aggregate op byte is rejected.
  std::string bad_op = payload;
  // Layout: varu64 nfilters, filter triple, varu64 naggs, u8 op, ...
  // Find the op byte by re-encoding with a sentinel-free search: the op is
  // the byte right after the aggregate count for this single-agg query.
  // Encoded: [1][dim=1 zz][lo zz][hi zz][1][op][col zz][type zz]
  const size_t op_index = payload.size() - 3;
  ASSERT_EQ(static_cast<uint8_t>(bad_op[op_index]),
            static_cast<uint8_t>(AggKind::kAvg));
  bad_op[op_index] = 0x7F;
  EXPECT_FALSE(net::DecodeQueryPayload(bad_op, &out));
}

TEST(WireCodec, ResultAndErrorPayloadRoundTrip) {
  net::ResultPayload in;
  in.outcome = QueryOutcome::kShed;
  in.server_latency_seconds = 0.25;
  in.result.agg = -42;
  in.result.scanned = 1000;
  in.result.matched = 17;
  in.result.cell_ranges = 3;
  in.result.degraded = true;
  in.result.quarantined_blocks = 2;
  in.result.extra = {7, -9};
  std::string payload = net::EncodeResultPayload(in);
  net::ResultPayload out;
  ASSERT_TRUE(net::DecodeResultPayload(payload, &out));
  EXPECT_EQ(out.outcome, QueryOutcome::kShed);
  EXPECT_DOUBLE_EQ(out.server_latency_seconds, 0.25);
  EXPECT_EQ(out.result.agg, -42);
  EXPECT_EQ(out.result.matched, 17);
  EXPECT_TRUE(out.result.degraded);
  EXPECT_EQ(out.result.quarantined_blocks, 2);
  ASSERT_EQ(out.result.extra.size(), 2u);
  EXPECT_EQ(out.result.extra[1], -9);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(net::DecodeResultPayload(
        std::string_view(payload).substr(0, cut), &out));
  }

  const std::string err =
      net::EncodeErrorPayload(WireError::kQueueFull, "try later");
  WireError code = WireError::kNone;
  std::string message;
  ASSERT_TRUE(net::DecodeErrorPayload(err, &code, &message));
  EXPECT_EQ(code, WireError::kQueueFull);
  EXPECT_EQ(message, "try later");
  EXPECT_STREQ(net::ToString(WireError::kQueueFull), "queue-full");
  EXPECT_TRUE(net::IsRetryable(WireError::kQueueFull));
  EXPECT_TRUE(net::IsRetryable(WireError::kDraining));
  EXPECT_FALSE(net::IsRetryable(WireError::kMalformedFrame));
}

TEST(WireCodec, InsertPayloadRoundTripAndStrictDecode) {
  std::vector<std::vector<Value>> rows = {
      {1, -2, 300000}, {4, 5, 6}, {-7, 8, 9}};
  const std::string payload = net::EncodeInsertPayload(rows);
  std::vector<std::vector<Value>> out;
  ASSERT_TRUE(net::DecodeInsertPayload(payload, &out));
  EXPECT_EQ(out, rows);

  // Empty batch is legal; every truncation and trailing byte is rejected.
  ASSERT_TRUE(net::DecodeInsertPayload(net::EncodeInsertPayload({}), &out));
  EXPECT_TRUE(out.empty());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(net::DecodeInsertPayload(
        std::string_view(payload).substr(0, cut), &out))
        << "cut at " << cut;
  }
  EXPECT_FALSE(net::DecodeInsertPayload(payload + "x", &out));

  // Hostile counts are capped before any allocation happens.
  {
    std::string huge;
    huge.push_back(static_cast<char>(0xFF));  // varint continuation bytes
    huge.append(8, static_cast<char>(0xFF));
    huge.push_back(1);
    EXPECT_FALSE(net::DecodeInsertPayload(huge, &out));
  }

  const net::InsertAckPayload ack_in{12345, 42};
  net::InsertAckPayload ack_out;
  ASSERT_TRUE(net::DecodeInsertAckPayload(
      net::EncodeInsertAckPayload(ack_in), &ack_out));
  EXPECT_EQ(ack_out.accepted, 12345);
  EXPECT_EQ(ack_out.store_version, 42u);
  EXPECT_STREQ(net::ToString(WireError::kReadOnly), "read-only");
  EXPECT_FALSE(net::IsRetryable(WireError::kReadOnly));
}

TEST(TimerWheelTest, FiresAtDueTickAcrossLaps) {
  TimerWheel wheel(8);  // Tiny wheel: laps exercised immediately.
  std::vector<uint64_t> fired;
  wheel.Schedule(1, 3);
  wheel.Schedule(2, 11);  // Same slot as tick 3, one lap later.
  wheel.Schedule(3, 5);
  wheel.Advance(4, [&](uint64_t id) { fired.push_back(id); });
  ASSERT_EQ(fired, (std::vector<uint64_t>{1}));
  wheel.Advance(10, [&](uint64_t id) { fired.push_back(id); });
  ASSERT_EQ(fired, (std::vector<uint64_t>{1, 3}));
  wheel.Advance(12, [&](uint64_t id) { fired.push_back(id); });
  ASSERT_EQ(fired, (std::vector<uint64_t>{1, 3, 2}));
}

// ---- Live loopback servers ------------------------------------------------

/// Builds the shared synthetic table once per fixture.
class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(91);
    const int64_t n = 24000;
    data_ = Dataset(3, {});
    data_.Reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      Value x = rng.UniformValue(0, 40000);
      data_.AppendRow(
          {x, x + rng.UniformValue(-300, 300), rng.UniformValue(0, 1000)});
    }
    index_ = std::make_unique<FullScanIndex>(data_);
  }

  Query Needle(Rng& rng) const {
    Query q;
    Value lo = rng.UniformValue(0, 38000);
    q.filters.push_back(Predicate{0, lo, lo + 1500});
    q.SetAggregates({{AggKind::kSum, 1}, {AggKind::kCount, 0}});
    return q;
  }

  Query Region() const {
    Query q;
    q.filters.push_back(Predicate{0, 0, 40000});
    q.SetAggregates({{AggKind::kSum, 1}, {AggKind::kSum, 2},
                     {AggKind::kCount, 0}});
    return q;
  }

  /// The wire answer equals per-query Execute bit for bit.
  void ExpectMatchesExecute(const ClientResult& got, const Query& q) const {
    const QueryResult want = index_->Execute(q);
    EXPECT_EQ(got.result.agg, want.agg);
    EXPECT_EQ(got.result.scanned, want.scanned);
    EXPECT_EQ(got.result.matched, want.matched);
    EXPECT_EQ(got.result.extra, want.extra);
  }

  Dataset data_;
  std::unique_ptr<FullScanIndex> index_;
};

/// Starts a server on an ephemeral loopback port and runs its event loop
/// on a background thread; stops and joins on destruction.
class ServerHarness {
 public:
  ServerHarness(QueryService* service, ServerOptions options = {}) {
    options.port = 0;
    // Snappy timer checks (idle/stall eviction, drain) unless the test
    // chose its own tick.
    if (options.tick_seconds == ServerOptions{}.tick_seconds) {
      options.tick_seconds = 0.002;
    }
    server_ = std::make_unique<TsunamiServer>(service, options);
    std::string error;
    started_ = server_->Start(&error);
    EXPECT_TRUE(started_) << error;
    if (started_) {
      thread_ = std::thread([this] { server_->Run(); });
    }
  }

  ~ServerHarness() { Stop(); }

  void Stop() {
    if (thread_.joinable()) {
      server_->RequestStop();
      thread_.join();
    }
  }

  /// Requests drain and joins Run() (asserting it actually exits).
  void Drain() {
    ASSERT_TRUE(thread_.joinable());
    server_->RequestDrain();
    thread_.join();
  }

  TsunamiServer& server() { return *server_; }
  int port() const { return server_->port(); }

  ClientOptions ClientFor() const {
    ClientOptions c;
    c.port = port();
    c.io_timeout_seconds = 20.0;
    return c;
  }

 private:
  std::unique_ptr<TsunamiServer> server_;
  std::thread thread_;
  bool started_ = false;
};

TEST_F(NetTest, LoopbackSmokeMatchesExecute) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  TsunamiClient client(harness.ClientFor());
  ASSERT_TRUE(client.Ping());

  Rng rng(7);
  for (int i = 0; i < 32; ++i) {
    const Query q = i % 8 == 0 ? Region() : Needle(rng);
    const ClientResult got = client.Run(q);
    ASSERT_TRUE(got.ok()) << "query " << i << ": error="
                          << net::ToString(got.error) << " outcome="
                          << ToString(got.outcome) << " msg="
                          << got.error_message;
    const QueryResult want = index_->Execute(q);
    EXPECT_EQ(got.result.agg, want.agg) << "query " << i;
    EXPECT_EQ(got.result.scanned, want.scanned) << "query " << i;
    EXPECT_EQ(got.result.matched, want.matched) << "query " << i;
    ASSERT_EQ(got.result.extra.size(), want.extra.size());
    for (size_t e = 0; e < want.extra.size(); ++e) {
      EXPECT_EQ(got.result.extra[e], want.extra[e]);
    }
    EXPECT_GE(got.server_latency_seconds, 0.0);
  }
  harness.Stop();
  const net::ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.queries_admitted, 32);
  EXPECT_EQ(stats.results_sent, 32);
  EXPECT_EQ(stats.orphaned_awaited, 0);
  EXPECT_EQ(stats.malformed_frames, 0);
}

TEST_F(NetTest, ReadOnlyServerRejectsInsertsWithTypedError) {
  QueryService service(index_.get());
  ServerHarness harness(&service);  // No insert_sink configured.
  TsunamiClient client(harness.ClientFor());
  const ClientResult r = client.Insert({{1, 2, 3}});
  ASSERT_TRUE(r.transport_ok);
  EXPECT_EQ(r.error, WireError::kReadOnly);
  EXPECT_EQ(r.inserted, 0);
  // The connection survives the typed error: queries still work.
  Rng rng(3);
  EXPECT_TRUE(client.Run(Needle(rng)).ok());
  harness.Stop();
  EXPECT_EQ(harness.server().stats().inserts_rejected, 1);
}

TEST_F(NetTest, InsertsOverTheWireBecomeQueryableRows) {
  ingest::IngestOptions ingest_options;
  ingest_options.index.sample_rows = 20000;
  ingest_options.index.agd.max_sample_points = 512;
  ingest_options.index.agd.max_sample_queries = 32;
  ingest_options.index.agd.max_iters = 2;
  ingest_options.background_compaction = false;
  ingest_options.chunk_capacity = 256;
  ingest::IngestStore store(data_, Workload{}, ingest_options);
  QueryService service(&store);

  ServerOptions server_options;
  server_options.insert_sink =
      [&store](const std::vector<std::vector<Value>>& rows,
               uint64_t* version) -> int64_t {
    for (const auto& row : rows) {
      if (row.size() != 3u) return -1;
    }
    const int64_t accepted = store.InsertBatch(rows);
    *version = store.version();
    return accepted;
  };
  ServerHarness harness(&service, server_options);
  TsunamiClient client(harness.ClientFor());

  // Rows far outside the synthetic table's dim-0 range: countable exactly.
  std::vector<std::vector<Value>> batch;
  for (Value i = 0; i < 600; ++i) batch.push_back({900000 + i, i, i % 7});
  const ClientResult ack = client.Insert(batch);
  ASSERT_TRUE(ack.transport_ok);
  ASSERT_EQ(ack.error, WireError::kNone);
  EXPECT_EQ(ack.inserted, 600);
  // 600 rows through 256-row chunks rolled at least twice: the acked store
  // version must have advanced past the initial publish.
  EXPECT_GT(ack.store_version, 1u);

  // A mismatched-arity batch is rejected without killing the connection.
  const ClientResult bad = client.Insert({{1, 2}});
  ASSERT_TRUE(bad.transport_ok);
  EXPECT_EQ(bad.error, WireError::kMalformedFrame);

  Query over_new;
  over_new.filters.push_back(Predicate{0, 900000, 901000});
  over_new.SetAggregates({{AggKind::kCount, 0}, {AggKind::kSum, 1}});
  const ClientResult got = client.Run(over_new);
  ASSERT_TRUE(got.ok()) << net::ToString(got.error) << " "
                        << got.error_message;
  EXPECT_EQ(got.result.matched, 600);
  EXPECT_EQ(got.result.agg, 600);  // COUNT.
  EXPECT_EQ(got.result.extra[0], 600 * 599 / 2);  // SUM of 0..599.

  harness.Stop();
  const net::ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.inserts_accepted, 1);
  EXPECT_EQ(stats.rows_inserted, 600);
  EXPECT_EQ(stats.inserts_rejected, 1);
}

TEST_F(NetTest, PipelinedRequestsAwaitedOutOfOrder) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  TsunamiClient client(harness.ClientFor());

  Rng rng(13);
  std::vector<Query> queries;
  std::vector<uint64_t> ids;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(i == 0 ? Region() : Needle(rng));
    const uint64_t id = client.Submit(queries.back());
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  // Await in reverse submission order: the stash must hold whatever
  // completed first while we wait for the last.
  for (int i = 11; i >= 0; --i) {
    ClientResult got;
    ASSERT_TRUE(client.Await(ids[i], &got)) << "request " << i;
    ASSERT_TRUE(got.ok()) << net::ToString(got.error);
    const QueryResult want = index_->Execute(queries[i]);
    EXPECT_EQ(got.result.agg, want.agg) << "request " << i;
    EXPECT_EQ(got.result.matched, want.matched) << "request " << i;
  }
}

TEST_F(NetTest, MalformedPayloadGetsTypedErrorAndConnectionSurvives) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  TsunamiClient client(harness.ClientFor());
  ASSERT_TRUE(client.Ping());

  // Hand-roll a kQuery frame whose payload is garbage: the server must
  // answer with a typed error on the same request id and keep serving the
  // connection (the frame boundary itself was sound).
  FrameHeader h;
  h.type = FrameType::kQuery;
  h.request_id = 77;
  std::string frame;
  net::AppendFrame(h, "\xff\xff\xff\xff garbage", &frame);
  ASSERT_TRUE(client.SendRaw(frame));
  ClientResult err;
  ASSERT_TRUE(client.Await(77, &err));
  EXPECT_TRUE(err.transport_ok);
  EXPECT_EQ(err.error, WireError::kMalformedFrame)
      << net::ToString(err.error);
  // Same connection, next query still works: frame sync held.
  Rng rng(5);
  const ClientResult ok = client.Run(Needle(rng));
  EXPECT_TRUE(ok.ok()) << net::ToString(ok.error);
}

TEST_F(NetTest, OversizedFrameRejectedAndConnectionCloses) {
  QueryService service(index_.get());
  ServerOptions so;
  so.max_frame_payload = 1024;
  ServerHarness harness(&service, so);
  TsunamiClient client(harness.ClientFor());
  ASSERT_TRUE(client.Ping());

  FrameHeader h;
  h.type = FrameType::kQuery;
  h.request_id = 5;
  h.payload_len = 0;  // AppendFrame overwrites from the payload size.
  std::string frame;
  net::AppendFrame(h, std::string(4096, 'x'), &frame);
  ASSERT_TRUE(client.SendRaw(frame));
  ClientResult err;
  ASSERT_TRUE(client.Await(5, &err));
  EXPECT_EQ(err.error, WireError::kOversizedFrame);
  // The server closed the connection after the error: the next read hits
  // EOF (Ping fails over this connection).
  EXPECT_FALSE(client.Ping() && client.connected());
}

TEST_F(NetTest, BadVersionAndBadTypeAndBadMagic) {
  QueryService service(index_.get());
  ServerHarness harness(&service);

  {  // Bad version: typed error (request id 0), then close.
    TsunamiClient client(harness.ClientFor());
    ASSERT_TRUE(client.Ping());
    std::string frame;
    net::AppendFrame(FrameHeader{}, "", &frame);
    frame[4] = 42;  // Corrupt the version field.
    frame[5] = 0;
    ASSERT_TRUE(client.SendRaw(frame));
    ClientResult err;
    ASSERT_TRUE(client.Await(0, &err));
    EXPECT_EQ(err.error, WireError::kBadVersion);
  }
  {  // Bad type: typed error, connection survives.
    TsunamiClient client(harness.ClientFor());
    ASSERT_TRUE(client.Ping());
    FrameHeader h;
    h.type = static_cast<FrameType>(200);
    h.request_id = 9;
    std::string frame;
    net::AppendFrame(h, "", &frame);
    ASSERT_TRUE(client.SendRaw(frame));
    ClientResult err;
    ASSERT_TRUE(client.Await(9, &err));
    EXPECT_EQ(err.error, WireError::kBadType);
    EXPECT_TRUE(client.Ping());  // Still serving.
  }
  {  // Bad magic: silent close (stream sync is unrecoverable).
    TsunamiClient client(harness.ClientFor());
    ASSERT_TRUE(client.Ping());
    ASSERT_TRUE(client.SendRaw("this is not a tsunami frame........."));
    EXPECT_FALSE(client.Ping());
  }
  harness.Stop();
  const net::ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.bad_version_frames, 1);
  EXPECT_EQ(stats.bad_type_frames, 1);
  EXPECT_EQ(stats.bad_magic_closes, 1);
}

TEST_F(NetTest, PerConnectionInflightCapReturnsClientBusy) {
  QueryService service(index_.get());  // Unbounded service: isolate the cap.
  ServerOptions so;
  so.max_inflight_per_conn = 2;
  ServerHarness harness(&service, so);
  TsunamiClient client(harness.ClientFor());

  // Pipeline many expensive queries at once: the server reads the burst in
  // one pass, so admissions 3.. find the connection at its cap while the
  // single worker is still scanning query 1.
  const int kBurst = 16;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kBurst; ++i) {
    const uint64_t id = client.Submit(Region());
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  int completed = 0, busy = 0;
  for (uint64_t id : ids) {
    ClientResult r;
    ASSERT_TRUE(client.Await(id, &r));
    if (r.ok()) {
      ++completed;
    } else {
      ASSERT_EQ(r.error, WireError::kClientBusy) << net::ToString(r.error);
      ++busy;
    }
  }
  EXPECT_EQ(completed + busy, kBurst);
  EXPECT_GE(completed, 1);
  EXPECT_GE(busy, 1) << "burst never hit the per-connection cap";
  // A retrying client eventually lands every query.
  const ClientResult retried = client.Run(Region());
  EXPECT_TRUE(retried.ok());
}

TEST_F(NetTest, QueueFullIsTypedAndRetryable) {
  ServiceOptions service_options;
  service_options.threads = 1;
  service_options.max_queued_queries = 1;
  service_options.low_priority_watermark = 1.0;
  QueryService service(index_.get(), service_options);
  ServerHarness harness(&service);
  TsunamiClient client(harness.ClientFor());
  // With the only worker jammed, the first query occupies the one admission
  // slot until Release(): every later query in the burst overflows.
  WorkerJam jam(&service.scheduler(), 1);

  const int kBurst = 16;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kBurst; ++i) {
    const uint64_t id = client.Submit(Region());
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  for (int i = 1; i < kBurst; ++i) {
    ClientResult r;
    ASSERT_TRUE(client.Await(ids[i], &r));
    ASSERT_EQ(r.error, WireError::kQueueFull) << net::ToString(r.error);
    EXPECT_TRUE(net::IsRetryable(r.error));
  }
  jam.Release();
  ClientResult first;
  ASSERT_TRUE(client.Await(ids[0], &first));
  EXPECT_TRUE(first.ok()) << net::ToString(first.error);
  EXPECT_EQ(service.stats().rejected_queue_full, kBurst - 1);
  // Run()'s bounded backoff retries recover once the queue clears.
  const ClientResult retried = client.Run(Region());
  EXPECT_TRUE(retried.ok()) << net::ToString(retried.error);
  EXPECT_GE(retried.attempts, 1);
}

TEST_F(NetTest, DeadlinePropagatesToServerSideTimeout) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  TsunamiClient client(harness.ClientFor());

  // Submit, not Run: Run checks the remaining budget client-side first, and
  // on a slow (sanitized) build 1 us is spent before the frame is sent —
  // the server, whose timeout this test is about, would never see it.
  const uint64_t id =
      client.Submit(Region(), /*priority=*/0, /*deadline_seconds=*/1e-6);
  ASSERT_NE(id, 0u);
  ClientResult r;
  ASSERT_TRUE(client.Await(id, &r));
  ASSERT_TRUE(r.transport_ok);
  ASSERT_EQ(r.error, WireError::kNone) << net::ToString(r.error);
  EXPECT_EQ(r.outcome, QueryOutcome::kTimedOut) << ToString(r.outcome);
  // Fail-closed: the identity result, never partial aggregates.
  EXPECT_EQ(r.result.agg, 0);
  EXPECT_EQ(r.result.matched, 0);
}

TEST_F(NetTest, IdleConnectionsAreEvicted) {
  QueryService service(index_.get());
  ServerOptions so;
  so.idle_timeout_seconds = 0.05;
  ServerHarness harness(&service, so);
  TsunamiClient client(harness.ClientFor());
  ASSERT_TRUE(client.Ping());

  // Go quiet past the idle timeout; the timer wheel evicts us.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_FALSE(client.Ping());
  harness.Stop();
  EXPECT_GE(harness.server().stats().evicted_idle, 1);
}

// Many multi-aggregate responses (~KBs each) against 4KB socket buffers
// and a reader that never reads: the server's write buffer stalls, and the
// stall timer must evict the connection instead of buffering forever.
// `tick_seconds` 0 keeps the harness's 2 ms tick.
void ExpectStalledReaderEvicted(const MultiDimIndex* index,
                                double tick_seconds, double stall_seconds) {
  QueryService service(index);
  ServerOptions so;
  so.sndbuf_bytes = 4096;  // Tiny socket buffer: responses back up fast.
  so.pause_read_watermark = 16 << 10;
  so.resume_read_watermark = 4 << 10;
  so.write_stall_timeout_seconds = stall_seconds;
  so.idle_timeout_seconds = 30.0;  // Isolate: only the stall can evict.
  so.max_inflight_per_conn = 64;
  if (tick_seconds > 0.0) so.tick_seconds = tick_seconds;
  ServerHarness harness(&service, so);
  ClientOptions copts = harness.ClientFor();
  copts.rcvbuf_bytes = 4096;  // Shrink the reader side too.
  TsunamiClient client(copts);

  // The empty-range filter keeps execution cheap (no rows match); the
  // response still carries all 3000 accumulators.
  Query wide;
  wide.filters.push_back(Predicate{0, 1, 0});
  std::vector<AggregateSpec> specs;
  for (int i = 0; i < 3000; ++i) {
    specs.push_back(AggregateSpec{AggKind::kCount, 0});
  }
  wide.SetAggregates(std::move(specs));
  for (int i = 0; i < 24; ++i) {
    ASSERT_NE(client.Submit(wide), 0u);
  }
  // Never Await: just wait for the eviction.
  Timer timer;
  bool evicted = false;
  while (timer.ElapsedSeconds() < 20.0) {
    if (harness.server().stats().evicted_stalled >= 1) {
      evicted = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(evicted) << "stalled reader was never evicted";
  harness.Stop();
  // No ticket leaked: whatever was in flight when the connection died was
  // still awaited and discarded.
  EXPECT_EQ(harness.server().stats().inflight, 0);
}

TEST_F(NetTest, StalledReaderIsEvicted) {
  ExpectStalledReaderEvicted(index_.get(), /*tick_seconds=*/0.0,
                             /*stall_seconds=*/0.1);
}

// With a slow tick every reply is queued, and the write buffer stalls,
// inside the loop's first tick. That stall's start must still count.
TEST_F(NetTest, StallStartingInFirstTickIsEvicted) {
  ExpectStalledReaderEvicted(index_.get(), /*tick_seconds=*/0.5,
                             /*stall_seconds=*/1.0);
}

TEST_F(NetTest, GracefulDrainFinishesInflightAndRejectsNew) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  TsunamiClient client(harness.ClientFor());

  // Park a burst of work in flight, then drain.
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const uint64_t id = client.Submit(Region());
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  harness.server().RequestDrain();
  // Wait until the drain reached the service (new submissions reject).
  Timer timer;
  while (!service.draining() && timer.ElapsedSeconds() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(service.draining());

  // A query submitted mid-drain gets a typed kDraining error (if the
  // connection is still up; the drain may close it once idle — transport
  // loss is the other legal answer, never a wrong result).
  const uint64_t late = client.Submit(Region());
  // Every in-flight query still gets its full answer.
  const QueryResult want = index_->Execute(Region());
  for (uint64_t id : ids) {
    ClientResult r;
    const net::ServerStats dbg = harness.server().stats();
    ASSERT_TRUE(client.Await(id, &r))
        << "in-flight answer lost in drain: admitted=" << dbg.queries_admitted
        << " results=" << dbg.results_sent << " errors=" << dbg.errors_sent;
    ASSERT_TRUE(r.ok()) << net::ToString(r.error) << " " << ToString(r.outcome);
    EXPECT_EQ(r.result.agg, want.agg);
    EXPECT_EQ(r.result.matched, want.matched);
  }
  if (late != 0) {
    ClientResult r;
    if (client.Await(late, &r)) {
      EXPECT_EQ(r.error, WireError::kDraining) << net::ToString(r.error);
    }
  }
  // Hang up. The server half-closed this connection (FIN after the last
  // result) and is now waiting on our EOF; without it the drain can only
  // finish via its 30s timeout.
  client.Close();
  // Run() returns on its own — the drain completes without RequestStop.
  harness.Drain();
  const net::ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.inflight, 0);
  EXPECT_EQ(stats.active_connections, 0);
  // And the drained service rejects fresh work at the admission layer.
  const QueryService::Admission post = service.Submit(Region());
  EXPECT_EQ(post.outcome, AdmissionOutcome::kDraining)
      << ToString(post.outcome);
}

// A 5 s tick with both eviction timers off: nothing but a finished query
// (or a client frame) wakes the loop, so an answer that arrives well
// inside one tick was delivered by the completion wake, not by the tick.
ServerOptions SlowTickOptions() {
  ServerOptions so;
  so.tick_seconds = 5.0;
  so.idle_timeout_seconds = 0.0;
  so.write_stall_timeout_seconds = 0.0;
  return so;
}

TEST_F(NetTest, ResultArrivesWithoutWaitingForTick) {
  QueryService service(index_.get());
  ServerHarness harness(&service, SlowTickOptions());
  TsunamiClient client(harness.ClientFor());
  ASSERT_TRUE(client.Ping());
  const Query q = Region();
  Timer timer;
  const ClientResult got = client.Run(q);
  const double seconds = timer.ElapsedSeconds();
  ASSERT_TRUE(got.ok()) << net::ToString(got.error) << " "
                        << ToString(got.outcome);
  EXPECT_LT(seconds, 1.0) << "the answer waited for the loop's tick";
  ExpectMatchesExecute(got, q);
}

// Inline service: the completion hook runs on the loop thread itself,
// inside the frame handler that submitted the query.
TEST_F(NetTest, InlineServiceResultArrivesWithoutWaitingForTick) {
  ServiceOptions service_options;
  service_options.threads = 0;
  QueryService service(index_.get(), service_options);
  ServerHarness harness(&service, SlowTickOptions());
  TsunamiClient client(harness.ClientFor());
  ASSERT_TRUE(client.Ping());
  Rng rng(17);
  for (int i = 0; i < 4; ++i) {
    const Query q = i == 0 ? Region() : Needle(rng);
    Timer timer;
    const ClientResult got = client.Run(q);
    const double seconds = timer.ElapsedSeconds();
    ASSERT_TRUE(got.ok()) << "query " << i << ": "
                          << net::ToString(got.error);
    EXPECT_LT(seconds, 1.0) << "query " << i << " waited for the tick";
    ExpectMatchesExecute(got, q);
  }
  harness.Stop();
  EXPECT_EQ(harness.server().stats().results_sent, 4);
}

// A pipelined burst over two connections, one of which hangs up with all
// its queries in flight: the survivor gets every answer without a tick,
// and every ticket of the dead connection is still Awaited as an orphan.
TEST_F(NetTest, PipelinedBurstWithDeadConnectionArrivesWithoutTick) {
  ServiceOptions service_options;
  service_options.threads = 2;
  QueryService service(index_.get(), service_options);
  ServerHarness harness(&service, SlowTickOptions());
  TsunamiClient survivor(harness.ClientFor());
  TsunamiClient doomed(harness.ClientFor());
  ASSERT_TRUE(survivor.Ping());
  ASSERT_TRUE(doomed.Ping());

  // Both workers jammed: no query of the burst can finish before the
  // doomed connection is gone.
  WorkerJam jam(&service.scheduler(), 2);
  const int kPerConn = 32;
  Rng rng(23);
  std::vector<Query> queries;
  std::vector<uint64_t> ids;
  for (int i = 0; i < kPerConn; ++i) {
    queries.push_back(i % 8 == 0 ? Region() : Needle(rng));
    ids.push_back(survivor.Submit(queries.back()));
    ASSERT_NE(ids.back(), 0u);
    ASSERT_NE(doomed.Submit(Needle(rng)), 0u);
  }
  doomed.Close();
  Timer wait;
  while (wait.ElapsedSeconds() < 10.0) {
    const net::ServerStats stats = harness.server().stats();
    if (stats.queries_admitted == 2 * kPerConn &&
        stats.active_connections == 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(harness.server().stats().queries_admitted, 2 * kPerConn);
  ASSERT_EQ(harness.server().stats().active_connections, 1);

  Timer timer;
  jam.Release();
  for (int i = 0; i < kPerConn; ++i) {
    ClientResult got;
    ASSERT_TRUE(survivor.Await(ids[i], &got)) << "request " << i;
    ASSERT_TRUE(got.ok()) << "request " << i << ": "
                          << net::ToString(got.error);
    ExpectMatchesExecute(got, queries[i]);
  }
  // Half a tick: a loop that slept until its tick would take 5 s.
  EXPECT_LT(timer.ElapsedSeconds(), 2.5)
      << "the answers waited for the loop's tick";
  harness.Stop();
  const net::ServerStats stats = harness.server().stats();
  EXPECT_EQ(stats.results_sent, kPerConn);
  EXPECT_EQ(stats.orphaned_awaited, kPerConn);
  EXPECT_EQ(stats.inflight, 0);
  EXPECT_EQ(service.stats().tickets_in_flight, 0);
}

#if defined(TSUNAMI_FAULT_INJECTION)

class NetFaultTest : public NetTest {
 protected:
  void TearDown() override { fault::DisarmAll(); }
};

TEST_F(NetFaultTest, AcceptFailureIsSurvivedByRetry) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 1;
  fault::Arm("net.accept_fail", spec);

  TsunamiClient client(harness.ClientFor());
  Rng rng(3);
  const Query q = Needle(rng);
  const ClientResult r = client.Run(q);
  ASSERT_TRUE(r.ok()) << net::ToString(r.error) << " " << r.error_message;
  EXPECT_GE(r.attempts, 2) << "first accept should have been injected away";
  EXPECT_EQ(r.result.agg, index_->Execute(q).agg);
  EXPECT_EQ(fault::FireCount("net.accept_fail"), 1);
}

TEST_F(NetFaultTest, PartialFrameIsDiscardedAndRetried) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 1;
  fault::Arm("net.partial_frame", spec);

  TsunamiClient client(harness.ClientFor());
  Rng rng(4);
  const Query q = Needle(rng);
  const ClientResult r = client.Run(q);
  ASSERT_TRUE(r.ok()) << net::ToString(r.error) << " " << r.error_message;
  EXPECT_GE(r.attempts, 2);
  EXPECT_EQ(r.result.agg, index_->Execute(q).agg);
  harness.Stop();
  const net::ServerStats stats = harness.server().stats();
  // The torn frame was discarded on EOF — never parsed as a query, never
  // "malformed" (the frame boundary itself was simply incomplete).
  EXPECT_EQ(stats.malformed_frames, 0);
  EXPECT_EQ(stats.queries_admitted, 1);
}

TEST_F(NetFaultTest, InjectedResetIsSurvivedByRetry) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  fault::FaultSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 1;
  fault::Arm("net.reset", spec);

  TsunamiClient client(harness.ClientFor());
  Rng rng(6);
  const Query q = Needle(rng);
  const ClientResult r = client.Run(q);
  ASSERT_TRUE(r.ok()) << net::ToString(r.error) << " " << r.error_message;
  EXPECT_GE(r.attempts, 2);
  EXPECT_EQ(r.result.agg, index_->Execute(q).agg);
  harness.Stop();
  EXPECT_EQ(harness.server().stats().resets_injected, 1);
}

TEST_F(NetFaultTest, ShortWritesStillDeliverBitIdenticalResults) {
  QueryService service(index_.get());
  ServerHarness harness(&service);
  fault::FaultSpec spec;
  spec.probability = 0.5;
  spec.seed = 99;
  fault::Arm("net.short_write", spec);

  TsunamiClient client(harness.ClientFor());
  Rng rng(8);
  for (int i = 0; i < 16; ++i) {
    const Query q = i % 4 == 0 ? Region() : Needle(rng);
    const ClientResult r = client.Run(q);
    ASSERT_TRUE(r.ok()) << "query " << i << ": " << net::ToString(r.error);
    const QueryResult want = index_->Execute(q);
    EXPECT_EQ(r.result.agg, want.agg) << "query " << i;
    EXPECT_EQ(r.result.matched, want.matched) << "query " << i;
  }
  EXPECT_GT(fault::FireCount("net.short_write"), 0);
}

#endif  // TSUNAMI_FAULT_INJECTION

}  // namespace
}  // namespace tsunami
