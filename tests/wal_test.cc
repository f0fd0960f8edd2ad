// Durability suite (ROADMAP "Durable ingest"): WAL record framing and the
// truncate-at-every-byte torn-tail sweep, group-commit ack ordering and
// coalescing, segment rotation, and DurableIngestStore end-to-end — bootstrap
// / reopen bit-identity against a never-crashed store, checkpoint truncation
// of the log, per-row replay-cursor skipping for batches straddling a fold
// boundary, tolerated torn tails, and corrupt manifest / checkpoint refusal.
// Fault-injection builds additionally drive wal.fsync_fail and wal.torn_write
// (the log must fail closed: nothing acked that is not on stable storage) and
// durability.checkpoint_throw (the WAL must retain everything and the next
// fold must retry), and ingest.fold_window (chunks rolled inside a fold
// recover exactly once).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/full_scan.h"
#include "src/common/fault_injection.h"
#include "src/common/random.h"
#include "src/durability/durable_store.h"
#include "src/durability/wal.h"
#include "src/ingest/ingest_store.h"
#include "src/io/serializer.h"
#include "tests/test_support.h"

namespace tsunami {
namespace {

using durability::DurabilityOptions;
using durability::DurableIngestStore;
using durability::EncodeRowBatchRecord;
using durability::ReadWalSegment;
using durability::WalRecord;
using durability::WalRecordType;
using durability::WalSegmentContents;
using durability::WalWriter;
using durability::WalWriterOptions;
using ingest::IngestOptions;
using ingest::IngestStore;

IngestOptions SmallIngestOptions() {
  IngestOptions options;
  options.index.sample_rows = 20000;
  options.index.agd.max_sample_points = 512;
  options.index.agd.max_sample_queries = 32;
  options.index.agd.max_iters = 2;
  options.index.agd.max_cells = 1 << 12;
  options.background_compaction = false;
  return options;
}

Query RangeCount(int dim, Value lo, Value hi) {
  Query q;
  q.filters.push_back(Predicate{dim, lo, hi});
  q.SetAggregates({{AggKind::kCount, 0}});
  return q;
}

void ExpectSameAnswer(const QueryResult& got, const QueryResult& want) {
  EXPECT_EQ(got.agg, want.agg);
  EXPECT_EQ(got.matched, want.matched);
  EXPECT_EQ(got.extra, want.extra);
}

void CheckAgainstReference(const IngestStore& store, const Dataset& expect,
                           const std::vector<Query>& queries) {
  FullScanIndex reference(expect);
  for (const Query& q : queries) {
    ExpectSameAnswer(store.Execute(q), reference.Execute(q));
  }
}

/// Fresh per-test scratch directory under the system temp root.
std::string TestDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("tsunami_wal_test_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void WriteBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

void AppendBytes(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

int CountWalSegments(const std::string& dir) {
  int n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) ++n;
  }
  return n;
}

/// Base table + workload shared by the DurableIngestStore tests; mirrors the
/// ingest suite's fixture so recovered stores can be checked against the
/// same full-scan reference.
struct DurableFixture {
  Dataset data{2, {}};
  Workload workload;
  Rng rng{17};

  explicit DurableFixture(int64_t base_rows) {
    for (int64_t i = 0; i < base_rows; ++i) {
      Value x = rng.UniformValue(0, 100000);
      data.AppendRow({x, rng.UniformValue(0, 1000)});
    }
    for (int i = 0; i < 12; ++i) {
      Query q;
      Value lo = rng.UniformValue(0, 90000);
      q.filters.push_back(Predicate{0, lo, lo + 8000});
      workload.push_back(q);
    }
  }

  std::vector<Value> RandomRow() {
    return {rng.UniformValue(0, 100000), rng.UniformValue(0, 1000)};
  }

  std::vector<std::vector<Value>> RandomBatch(int n) {
    std::vector<std::vector<Value>> rows;
    rows.reserve(n);
    for (int i = 0; i < n; ++i) rows.push_back(RandomRow());
    return rows;
  }

  std::vector<Query> CheckQueries() {
    std::vector<Query> queries;
    for (int i = 0; i < 16; ++i) {
      Query q;
      Value lo = rng.UniformValue(0, 80000);
      q.filters.push_back(Predicate{0, lo, lo + 15000});
      q.SetAggregates({{AggKind::kCount, 0}, {AggKind::kSum, 1}});
      queries.push_back(q);
    }
    queries.push_back(RangeCount(0, 0, 200000));
    return queries;
  }

  DurabilityOptions Options(const std::string& dir) {
    DurabilityOptions o;
    o.dir = dir;
    o.ingest = SmallIngestOptions();
    return o;
  }
};

// ---- Record framing -------------------------------------------------------

TEST(WalRecordTest, EncodeDecodeRoundTrip) {
  WalRecord record;
  record.first_ordinal = 41;
  record.rows = {{7, -100}, {0, 0}, {99999, 1000000007}};
  const std::string frame = EncodeRowBatchRecord(41, record.rows);
  // Golden bytes: the on-disk layout is pinned, not just self-consistent.
  EXPECT_EQ(Hex(frame),
            "11000000"            // body_len 17
            "0f43ff4d4009bed5"    // XxHash64(body, "WAL!")
            "01"                  // WalRecordType::kRowBatch
            "52"                  // first_ordinal 41
            "03"                  // rows
            "02"                  // dims
            "0ec701"              // 7, -100
            "0000"                // 0, 0
            "be9a0c8ea8d6b907");  // 99999, 1000000007

  WalRecord got;
  size_t offset = 0;
  ASSERT_EQ(durability::DecodeWalFrame(frame, &offset, &got),
            FileError::kNone);
  EXPECT_EQ(offset, frame.size());
  EXPECT_EQ(got.type, WalRecordType::kRowBatch);
  EXPECT_EQ(got.first_ordinal, 41);
  EXPECT_EQ(got.rows, record.rows);
}

TEST(WalRecordTest, DecodeTypesShortAndCorruptTails) {
  const std::string frame = EncodeRowBatchRecord(0, {{1, 2}});

  // Any strict prefix is a torn frame, and offset stays at the frame start.
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    WalRecord got;
    size_t offset = 0;
    EXPECT_EQ(durability::DecodeWalFrame(std::string_view(frame).substr(0, cut),
                                         &offset, &got),
              FileError::kTruncated);
    EXPECT_EQ(offset, 0u);
  }

  // A complete frame whose header declares an absurd body is corruption, not
  // an allocation request.
  std::string absurd = frame;
  absurd[0] = '\xFF';
  absurd[1] = '\xFF';
  absurd[2] = '\xFF';
  absurd[3] = '\xFF';
  WalRecord got;
  size_t offset = 0;
  EXPECT_EQ(durability::DecodeWalFrame(absurd, &offset, &got),
            FileError::kChecksumMismatch);
  EXPECT_EQ(offset, 0u);
}

TEST(WalRecordTest, FileErrorToStringNames) {
  EXPECT_STREQ(ToString(FileError::kNone), "none");
  EXPECT_STREQ(ToString(FileError::kTruncated), "truncated");
  EXPECT_STREQ(ToString(FileError::kChecksumMismatch), "checksum_mismatch");
}

// ---- Segment reading: the torn-tail sweep ---------------------------------

// Satellite: mirror io_test's truncation sweep at the WAL layer. For a
// multi-record segment cut at EVERY byte offset, replay must return exactly
// the records whose frames are complete, type the tail as kTruncated (unless
// the cut lands on a frame boundary — that is a clean EOF), and report the
// boundary offset where reading stopped.
TEST(WalSegmentTest, TruncateAtEveryByteRecoversIntactPrefix) {
  const std::string dir = TestDir("sweep");
  const std::string path = dir + "/wal-000001.log";

  std::string full;
  std::vector<size_t> boundary = {0};  // boundary[k] = bytes of first k frames.
  int64_t ordinal = 0;
  for (int i = 0; i < 4; ++i) {
    std::vector<std::vector<Value>> rows;
    for (int r = 0; r <= i; ++r) rows.push_back({100 * i + r, -r});
    full += EncodeRowBatchRecord(ordinal, rows);
    ordinal += static_cast<int64_t>(rows.size());
    boundary.push_back(full.size());
  }

  for (size_t cut = 0; cut <= full.size(); ++cut) {
    WriteBytes(path, std::string_view(full).substr(0, cut));
    const WalSegmentContents seg = ReadWalSegment(path);

    size_t intact = 0;
    while (intact + 1 < boundary.size() && boundary[intact + 1] <= cut) {
      ++intact;
    }
    ASSERT_EQ(seg.records.size(), intact) << "cut=" << cut;
    EXPECT_EQ(seg.tail_offset, boundary[intact]) << "cut=" << cut;
    if (cut == boundary[intact]) {
      EXPECT_EQ(seg.tail_status, FileError::kNone) << "cut=" << cut;
    } else {
      EXPECT_EQ(seg.tail_status, FileError::kTruncated) << "cut=" << cut;
      EXPECT_NE(seg.message.find("offset"), std::string::npos);
    }
    // The surviving prefix is bit-intact, not merely counted.
    int64_t expect_ordinal = 0;
    for (size_t k = 0; k < intact; ++k) {
      EXPECT_EQ(seg.records[k].first_ordinal, expect_ordinal);
      expect_ordinal += static_cast<int64_t>(seg.records[k].rows.size());
      EXPECT_EQ(seg.records[k].rows.size(), k + 1);
    }
  }
}

TEST(WalSegmentTest, FlippedByteTypesChecksumMismatch) {
  const std::string dir = TestDir("flip");
  const std::string path = dir + "/wal-000001.log";

  const std::string f0 = EncodeRowBatchRecord(0, {{1, 2}, {3, 4}});
  const std::string f1 = EncodeRowBatchRecord(2, {{5, 6}, {7, 8}, {9, 10}});
  const std::string full = f0 + f1;

  // Flip every byte of the second frame in turn: the first record must
  // always survive, and the read must always stop exactly at its boundary.
  for (size_t p = f0.size(); p < full.size(); ++p) {
    std::string bytes = full;
    bytes[p] = static_cast<char>(bytes[p] ^ 0x5A);
    WriteBytes(path, bytes);
    const WalSegmentContents seg = ReadWalSegment(path);
    ASSERT_EQ(seg.records.size(), 1u) << "flip at " << p;
    EXPECT_EQ(seg.records[0].rows.size(), 2u);
    EXPECT_EQ(seg.tail_offset, f0.size()) << "flip at " << p;
    EXPECT_NE(seg.tail_status, FileError::kNone) << "flip at " << p;
  }

  // A mid-body flip specifically is a complete frame failing its hash.
  std::string bytes = full;
  bytes[f0.size() + durability::kWalFrameHeaderSize + 2] =
      static_cast<char>(bytes[f0.size() + durability::kWalFrameHeaderSize + 2] ^
                        0x5A);
  WriteBytes(path, bytes);
  const WalSegmentContents seg = ReadWalSegment(path);
  EXPECT_EQ(seg.tail_status, FileError::kChecksumMismatch);
  EXPECT_NE(seg.message.find("checksum"), std::string::npos);

  const WalSegmentContents missing = ReadWalSegment(dir + "/absent.log");
  EXPECT_EQ(missing.tail_status, FileError::kIoError);
}

// ---- WalWriter: group commit ----------------------------------------------

TEST(WalWriterTest, ManualModeGroupsEverythingPendingIntoOneCommit) {
  const std::string dir = TestDir("manual");
  WalWriterOptions options;
  options.background = false;
  WalWriter wal(dir + "/wal-000001.log", options);
  ASSERT_TRUE(wal.ok());

  for (int i = 0; i < 5; ++i) {
    const uint64_t lsn = wal.Append(EncodeRowBatchRecord(i, {{i, i}}));
    EXPECT_EQ(lsn, static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(wal.durable_lsn(), 0u);  // Nothing commits until asked.
  EXPECT_TRUE(wal.CommitPending());
  EXPECT_EQ(wal.durable_lsn(), 5u);
  EXPECT_TRUE(wal.WaitDurable(5));

  const WalWriter::Stats stats = wal.stats();
  EXPECT_EQ(stats.appends, 5);
  EXPECT_EQ(stats.records_committed, 5);
  EXPECT_EQ(stats.group_commits, 1);  // One write+fsync for all five.
  EXPECT_EQ(stats.max_group_records, 5);
  wal.Close();

  const WalSegmentContents seg = ReadWalSegment(dir + "/wal-000001.log");
  EXPECT_EQ(seg.tail_status, FileError::kNone);
  ASSERT_EQ(seg.records.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(seg.records[i].first_ordinal, i);
}

TEST(WalWriterTest, AckIsReleasedOnlyByTheCommit) {
  const std::string dir = TestDir("ack_order");
  WalWriterOptions options;
  options.background = false;
  WalWriter wal(dir + "/wal-000001.log", options);
  ASSERT_TRUE(wal.ok());

  wal.Append(EncodeRowBatchRecord(0, {{1, 1}}));
  const uint64_t lsn = wal.Append(EncodeRowBatchRecord(1, {{2, 2}}));

  std::atomic<bool> acked{false};
  std::atomic<bool> durable{false};
  std::thread waiter([&] {
    durable.store(wal.WaitDurable(lsn));
    acked.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(acked.load());  // No commit issued: the ack must not release.
  EXPECT_TRUE(wal.CommitPending());
  waiter.join();
  EXPECT_TRUE(acked.load());
  EXPECT_TRUE(durable.load());
  EXPECT_GE(wal.durable_lsn(), lsn);
}

TEST(WalWriterTest, ConcurrentWritersShareCommitsAndAllBecomeDurable) {
  const std::string dir = TestDir("concurrent");
  WalWriter wal(dir + "/wal-000001.log");  // Background committer.
  ASSERT_TRUE(wal.ok());

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 32;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&wal, &failures, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        const int64_t ordinal = w * kPerWriter + i;
        const uint64_t lsn =
            wal.Append(EncodeRowBatchRecord(ordinal, {{ordinal, w}}));
        if (lsn == 0 || !wal.WaitDurable(lsn)) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(wal.durable_lsn(), static_cast<uint64_t>(kWriters * kPerWriter));

  const WalWriter::Stats stats = wal.stats();
  EXPECT_EQ(stats.records_committed, kWriters * kPerWriter);
  EXPECT_LE(stats.group_commits, stats.records_committed);
  wal.Close();

  const WalSegmentContents seg = ReadWalSegment(wal.path());
  EXPECT_EQ(seg.tail_status, FileError::kNone);
  EXPECT_EQ(seg.records.size(), static_cast<size_t>(kWriters * kPerWriter));
}

TEST(WalWriterTest, RotationSplitsSegmentsAndLsnsKeepCounting) {
  const std::string dir = TestDir("rotate");
  WalWriterOptions options;
  options.background = false;
  WalWriter wal(dir + "/wal-000001.log", options);
  ASSERT_TRUE(wal.ok());

  wal.Append(EncodeRowBatchRecord(0, {{1, 1}}));
  wal.Append(EncodeRowBatchRecord(1, {{2, 2}}));
  ASSERT_TRUE(wal.RotateTo(dir + "/wal-000002.log"));
  EXPECT_EQ(wal.durable_lsn(), 2u);  // Rotation flushes the old segment.
  const uint64_t lsn = wal.Append(EncodeRowBatchRecord(2, {{3, 3}}));
  EXPECT_EQ(lsn, 3u);  // LSNs are monotone across segment boundaries.
  EXPECT_TRUE(wal.CommitPending());
  wal.Close();

  const WalSegmentContents first = ReadWalSegment(dir + "/wal-000001.log");
  const WalSegmentContents second = ReadWalSegment(dir + "/wal-000002.log");
  ASSERT_EQ(first.records.size(), 2u);
  ASSERT_EQ(second.records.size(), 1u);
  EXPECT_EQ(second.records[0].first_ordinal, 2);
}

// ---- DurableIngestStore ---------------------------------------------------

// Tentpole acceptance: reopen after a clean close and answer every query
// bit-identically to a never-crashed IngestStore fed the same inserts (and
// to the full-scan ground truth).
TEST(DurableStoreTest, ReopenIsBitIdenticalToNeverCrashedStore) {
  DurableFixture fx(2500);
  const std::string dir = TestDir("reopen");
  Dataset expect = fx.data;
  IngestStore never_crashed(fx.data, fx.workload, SmallIngestOptions());

  std::string error;
  std::unique_ptr<DurableIngestStore> durable =
      DurableIngestStore::Open(fx.data, fx.workload, fx.Options(dir), &error);
  ASSERT_NE(durable, nullptr) << error;
  EXPECT_FALSE(durable->recovery().recovered);

  for (int b = 0; b < 40; ++b) {
    const std::vector<std::vector<Value>> batch = fx.RandomBatch(13);
    ASSERT_TRUE(durable->InsertBatch(batch));
    ASSERT_EQ(never_crashed.InsertBatch(batch), 13);
    for (const std::vector<Value>& row : batch) expect.AppendRow(row);
  }
  EXPECT_EQ(durable->next_ordinal(), 40 * 13);
  const DurableIngestStore::Stats stats = durable->stats();
  EXPECT_EQ(stats.rows_logged, 40 * 13);
  EXPECT_EQ(stats.durable_acks, 40);
  EXPECT_EQ(stats.failed_acks, 0);
  durable.reset();  // Clean close.

  durable =
      DurableIngestStore::Open(fx.data, fx.workload, fx.Options(dir), &error);
  ASSERT_NE(durable, nullptr) << error;
  const durability::RecoveryInfo& rec = durable->recovery();
  EXPECT_TRUE(rec.recovered);
  EXPECT_EQ(rec.wal_tail_status, FileError::kNone);
  EXPECT_EQ(rec.replayed_rows, 40 * 13);
  EXPECT_EQ(rec.skipped_rows, 0);
  EXPECT_EQ(durable->next_ordinal(), 40 * 13);

  const std::vector<Query> queries = fx.CheckQueries();
  for (const Query& q : queries) {
    ExpectSameAnswer(durable->store().Execute(q), never_crashed.Execute(q));
  }
  CheckAgainstReference(durable->store(), expect, queries);
}

TEST(DurableStoreTest, CheckpointTruncatesWalAndReplayResumesAfterCursor) {
  DurableFixture fx(2500);
  const std::string dir = TestDir("checkpoint");
  Dataset expect = fx.data;

  std::string error;
  std::unique_ptr<DurableIngestStore> durable =
      DurableIngestStore::Open(fx.data, fx.workload, fx.Options(dir), &error);
  ASSERT_NE(durable, nullptr) << error;

  for (const std::vector<Value>& row : fx.RandomBatch(300)) {
    ASSERT_TRUE(durable->Insert(row));
    expect.AppendRow(row);
  }
  ASSERT_TRUE(durable->CheckpointNow());
  EXPECT_EQ(durable->stats().checkpoints, 1);
  // Every logged row folded into the durable snapshot: the old segment is
  // deletable and only the fresh post-rotation segment remains.
  EXPECT_GE(durable->stats().segments_deleted, 1);
  EXPECT_EQ(CountWalSegments(dir), 1);
  EXPECT_FALSE(std::filesystem::exists(durability::WalSegmentPath(dir, 1)));

  // Rows after the checkpoint live only in the WAL tail.
  for (const std::vector<Value>& row : fx.RandomBatch(75)) {
    ASSERT_TRUE(durable->Insert(row));
    expect.AppendRow(row);
  }
  durable.reset();

  durable =
      DurableIngestStore::Open(fx.data, fx.workload, fx.Options(dir), &error);
  ASSERT_NE(durable, nullptr) << error;
  const durability::RecoveryInfo& rec = durable->recovery();
  EXPECT_TRUE(rec.recovered);
  EXPECT_EQ(rec.checkpoint_rows, static_cast<int64_t>(fx.data.size()) + 300);
  EXPECT_EQ(rec.replay_cursor, 300);
  EXPECT_EQ(rec.replayed_rows, 75);
  EXPECT_EQ(rec.skipped_rows, 0);  // The covered segment is gone entirely.
  EXPECT_EQ(durable->next_ordinal(), 375);
  CheckAgainstReference(durable->store(), expect, fx.CheckQueries());
}

// A fold consumes whole chunks, so a batch larger than the chunk capacity
// can straddle the fold boundary: part of it is in the checkpoint, the rest
// only in the WAL. Replay must skip exactly the folded prefix of the batch
// record — per row, never double-applying and never dropping.
TEST(DurableStoreTest, BatchStraddlingFoldBoundaryReplaysExactRemainder) {
  DurableFixture fx(2000);
  const std::string dir = TestDir("straddle");
  Dataset expect = fx.data;

  DurabilityOptions options = fx.Options(dir);
  options.ingest.chunk_capacity = 64;
  std::string error;
  std::unique_ptr<DurableIngestStore> durable =
      DurableIngestStore::Open(fx.data, fx.workload, options, &error);
  ASSERT_NE(durable, nullptr) << error;

  // One 150-row batch = one WAL record spanning two full chunks (128 rows)
  // plus 22 rows in the open chunk.
  const std::vector<std::vector<Value>> batch = fx.RandomBatch(150);
  ASSERT_TRUE(durable->InsertBatch(batch));
  for (const std::vector<Value>& row : batch) expect.AppendRow(row);

  // Fold WITHOUT rolling the open chunk: the replay cursor lands mid-batch.
  durable->store().CompactNow();
  durable.reset();

  durable = DurableIngestStore::Open(fx.data, fx.workload, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  const durability::RecoveryInfo& rec = durable->recovery();
  EXPECT_TRUE(rec.recovered);
  EXPECT_EQ(rec.replay_cursor, 128);
  EXPECT_EQ(rec.skipped_rows, 128);  // The folded prefix of the batch.
  EXPECT_EQ(rec.replayed_rows, 22);  // The unfolded remainder, exactly once.
  EXPECT_EQ(durable->next_ordinal(), 150);

  // No row dropped, none double-applied: the count over everything is exact.
  FullScanIndex reference(expect);
  const Query all = RangeCount(0, 0, 200000);
  ExpectSameAnswer(durable->store().Execute(all), reference.Execute(all));
  CheckAgainstReference(durable->store(), expect, fx.CheckQueries());
}

TEST(DurableStoreTest, TornTailIsToleratedAcrossSegments) {
  DurableFixture fx(2000);
  const std::string dir = TestDir("torn_tail");
  Dataset expect = fx.data;

  std::string error;
  std::unique_ptr<DurableIngestStore> durable =
      DurableIngestStore::Open(fx.data, fx.workload, fx.Options(dir), &error);
  ASSERT_NE(durable, nullptr) << error;
  for (const std::vector<Value>& row : fx.RandomBatch(90)) {
    ASSERT_TRUE(durable->Insert(row));
    expect.AppendRow(row);
  }
  durable.reset();

  // Simulate a crash tearing the tail: a partial frame header (claims 7
  // body bytes, delivers 4) after the last committed record.
  AppendBytes(durability::WalSegmentPath(dir, 1),
              std::string_view("\x07\x00\x00\x00garb", 8));
  durable =
      DurableIngestStore::Open(fx.data, fx.workload, fx.Options(dir), &error);
  ASSERT_NE(durable, nullptr) << error;
  EXPECT_EQ(durable->recovery().wal_tail_status, FileError::kTruncated);
  EXPECT_NE(durable->recovery().wal_tail_message.find("offset"),
            std::string::npos);
  EXPECT_EQ(durable->next_ordinal(), 90);  // Every acked row survived.
  CheckAgainstReference(durable->store(), expect, fx.CheckQueries());
  durable.reset();

  // Recovery rotated to a fresh segment; corrupt THAT one with a complete
  // frame whose hash is garbage. Replay must still walk segment 1 (with its
  // old torn tail), carry the cursor into segment 2, and stop typed.
  const std::string seg2 = durability::WalSegmentPath(dir, 2);
  ASSERT_TRUE(std::filesystem::exists(seg2));
  std::string bogus = EncodeRowBatchRecord(90, {{1, 2}});
  bogus[durability::kWalFrameHeaderSize + 3] =
      static_cast<char>(bogus[durability::kWalFrameHeaderSize + 3] ^ 0x5A);
  AppendBytes(seg2, bogus);
  durable =
      DurableIngestStore::Open(fx.data, fx.workload, fx.Options(dir), &error);
  ASSERT_NE(durable, nullptr) << error;
  EXPECT_EQ(durable->recovery().wal_tail_status, FileError::kChecksumMismatch);
  EXPECT_EQ(durable->next_ordinal(), 90);
  CheckAgainstReference(durable->store(), expect, fx.CheckQueries());
}

TEST(DurableStoreTest, CorruptManifestOrCheckpointRefusesToOpen) {
  DurableFixture fx(2000);
  const std::string dir = TestDir("corrupt_meta");

  std::string error;
  std::unique_ptr<DurableIngestStore> durable =
      DurableIngestStore::Open(fx.data, fx.workload, fx.Options(dir), &error);
  ASSERT_NE(durable, nullptr) << error;
  ASSERT_TRUE(durable->Insert(fx.RandomRow()));
  durable.reset();

  // Garbage manifest: Open must fail with a typed complaint, never silently
  // bootstrap over data it cannot read.
  const std::string manifest_path = dir + "/MANIFEST";
  std::string saved;
  {
    std::ifstream in(manifest_path, std::ios::binary);
    saved.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  WriteBytes(manifest_path, "garbage");
  error.clear();
  EXPECT_EQ(
      DurableIngestStore::Open(fx.data, fx.workload, fx.Options(dir), &error),
      nullptr);
  EXPECT_FALSE(error.empty());

  // Restore the manifest but corrupt the checkpoint payload: same refusal.
  WriteBytes(manifest_path, saved);
  std::string ckpt;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) == 0) ckpt = entry.path().string();
  }
  ASSERT_FALSE(ckpt.empty());
  std::string bytes;
  {
    std::ifstream in(ckpt, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5A);
  WriteBytes(ckpt, bytes);
  error.clear();
  EXPECT_EQ(
      DurableIngestStore::Open(fx.data, fx.workload, fx.Options(dir), &error),
      nullptr);
  EXPECT_FALSE(error.empty());
}

// ---- Fault injection ------------------------------------------------------

#if defined(TSUNAMI_FAULT_INJECTION)

class WalFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::DisarmAll(); }
};

// Satellite: wal.fsync_fail must fail the log CLOSED — the pending ack
// returns false, later appends are refused, and the log never revives
// in-process.
TEST_F(WalFaultTest, FsyncFailureFailsTheLogClosed) {
  const std::string dir = TestDir("fi_fsync");
  WalWriterOptions options;
  options.background = false;
  WalWriter wal(dir + "/wal-000001.log", options);
  ASSERT_TRUE(wal.ok());

  const uint64_t lsn = wal.Append(EncodeRowBatchRecord(0, {{1, 1}}));
  fault::FaultSpec spec;
  spec.max_fires = 1;
  fault::Arm("wal.fsync_fail", spec);
  EXPECT_FALSE(wal.CommitPending());
  EXPECT_EQ(fault::FireCount("wal.fsync_fail"), 1);

  EXPECT_TRUE(wal.failed());
  EXPECT_FALSE(wal.WaitDurable(lsn));  // Never acked.
  EXPECT_EQ(wal.durable_lsn(), 0u);
  EXPECT_EQ(wal.Append(EncodeRowBatchRecord(1, {{2, 2}})), 0u);  // Latched.
  EXPECT_EQ(wal.stats().fsync_failures, 1);
}

TEST_F(WalFaultTest, StoreFailsClosedOnFsyncFailureAndNeverLosesAckedRows) {
  DurableFixture fx(2000);
  const std::string dir = TestDir("fi_store_fsync");
  Dataset expect = fx.data;

  std::string error;
  std::unique_ptr<DurableIngestStore> durable =
      DurableIngestStore::Open(fx.data, fx.workload, fx.Options(dir), &error);
  ASSERT_NE(durable, nullptr) << error;

  const std::vector<std::vector<Value>> acked = fx.RandomBatch(20);
  ASSERT_TRUE(durable->InsertBatch(acked));
  for (const std::vector<Value>& row : acked) expect.AppendRow(row);

  fault::FaultSpec spec;
  spec.max_fires = 1;
  fault::Arm("wal.fsync_fail", spec);
  // The write lands but the fsync "fails": the batch is applied in memory
  // yet must NOT be acked.
  const std::vector<std::vector<Value>> unacked = fx.RandomBatch(10);
  EXPECT_FALSE(durable->InsertBatch(unacked));
  // Latched: the store is write-disabled, nothing further applies or logs.
  EXPECT_FALSE(durable->InsertBatch(fx.RandomBatch(5)));
  const DurableIngestStore::Stats stats = durable->stats();
  EXPECT_EQ(stats.durable_acks, 1);
  EXPECT_EQ(stats.failed_acks, 1);
  EXPECT_GE(stats.rejected_batches, 1);
  durable.reset();
  fault::DisarmAll();

  // Recovery: every acked row present; the rejected batch is gone; nothing
  // applied twice. (The unacked batch's bytes DID hit the file before the
  // failed fsync, so replay legitimately resurrects it — durability
  // promises acked rows survive, not that unacked ones vanish.)
  durable =
      DurableIngestStore::Open(fx.data, fx.workload, fx.Options(dir), &error);
  ASSERT_NE(durable, nullptr) << error;
  EXPECT_EQ(durable->next_ordinal(), 30);
  for (const std::vector<Value>& row : unacked) expect.AppendRow(row);
  CheckAgainstReference(durable->store(), expect, fx.CheckQueries());
}

TEST_F(WalFaultTest, TornWriteLosesOnlyTheUnackedTail) {
  DurableFixture fx(2000);
  const std::string dir = TestDir("fi_torn");
  Dataset expect = fx.data;

  std::string error;
  std::unique_ptr<DurableIngestStore> durable =
      DurableIngestStore::Open(fx.data, fx.workload, fx.Options(dir), &error);
  ASSERT_NE(durable, nullptr) << error;

  const std::vector<std::vector<Value>> acked = fx.RandomBatch(25);
  ASSERT_TRUE(durable->InsertBatch(acked));
  for (const std::vector<Value>& row : acked) expect.AppendRow(row);

  fault::FaultSpec spec;
  spec.max_fires = 1;
  fault::Arm("wal.torn_write", spec);  // Default: keep half the group bytes.
  EXPECT_FALSE(durable->InsertBatch(fx.RandomBatch(10)));
  EXPECT_EQ(durable->stats().wal.torn_writes, 1);
  EXPECT_FALSE(durable->Insert(fx.RandomRow()));  // Fail closed, latched.
  durable.reset();
  fault::DisarmAll();

  durable =
      DurableIngestStore::Open(fx.data, fx.workload, fx.Options(dir), &error);
  ASSERT_NE(durable, nullptr) << error;
  // The torn record is dropped at the typed tail; every acked row survives.
  EXPECT_NE(durable->recovery().wal_tail_status, FileError::kNone);
  EXPECT_EQ(durable->next_ordinal(), 25);
  CheckAgainstReference(durable->store(), expect, fx.CheckQueries());
}

TEST_F(WalFaultTest, CheckpointThrowRetainsWalAndNextFoldRetries) {
  DurableFixture fx(2000);
  const std::string dir = TestDir("fi_ckpt");
  Dataset expect = fx.data;

  std::string error;
  std::unique_ptr<DurableIngestStore> durable =
      DurableIngestStore::Open(fx.data, fx.workload, fx.Options(dir), &error);
  ASSERT_NE(durable, nullptr) << error;

  for (const std::vector<Value>& row : fx.RandomBatch(120)) {
    ASSERT_TRUE(durable->Insert(row));
    expect.AppendRow(row);
  }
  fault::FaultSpec spec;
  spec.max_fires = 1;
  fault::Arm("durability.checkpoint_throw", spec);
  EXPECT_FALSE(durable->CheckpointNow());  // No new manifest landed.
  EXPECT_EQ(fault::FireCount("durability.checkpoint_throw"), 1);
  EXPECT_EQ(durable->stats().checkpoint_failures, 1);
  EXPECT_EQ(durable->stats().checkpoints, 0);
  // The WAL retained every record; nothing was truncated on the failure.
  EXPECT_TRUE(std::filesystem::exists(durability::WalSegmentPath(dir, 1)));

  // The next fold (with fresh rows to fold) retries and succeeds.
  for (const std::vector<Value>& row : fx.RandomBatch(40)) {
    ASSERT_TRUE(durable->Insert(row));
    expect.AppendRow(row);
  }
  EXPECT_TRUE(durable->CheckpointNow());
  EXPECT_EQ(durable->stats().checkpoints, 1);
  durable.reset();

  durable =
      DurableIngestStore::Open(fx.data, fx.workload, fx.Options(dir), &error);
  ASSERT_NE(durable, nullptr) << error;
  EXPECT_EQ(durable->next_ordinal(), 160);
  CheckAgainstReference(durable->store(), expect, fx.CheckQueries());
}

// Regression, durable side: chunks rolled while a fold sits between its
// snapshot capture and its open-chunk read (forced by ingest.fold_window)
// used to vanish from memory, and the next fold's cumulative row count then
// advanced the replay cursor over ordinals the checkpoint never held —
// recovery lost some acked rows and applied others twice. Every acked row
// must come back exactly once.
TEST_F(WalFaultTest, RollsInsideFoldWindowRecoverExactlyOnce) {
  DurableFixture fx(2000);
  const std::string dir = TestDir("fi_fold_window");
  Dataset expect = fx.data;
  DurabilityOptions options = fx.Options(dir);
  options.ingest.chunk_capacity = 64;

  std::string error;
  std::unique_ptr<DurableIngestStore> durable =
      DurableIngestStore::Open(fx.data, fx.workload, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  auto insert = [&](int n) {
    const std::vector<std::vector<Value>> batch = fx.RandomBatch(n);
    ASSERT_TRUE(durable->InsertBatch(batch));
    for (const std::vector<Value>& row : batch) expect.AppendRow(row);
  };
  insert(100);  // One full chunk rolled, 36 rows in the open one.

  fault::FaultSpec spec;
  spec.max_fires = 1;
  spec.param = 2;
  fault::Arm("ingest.fold_window", spec);
  std::thread fold([&durable] { durable->store().CompactNow(); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fault::FireCount("ingest.fold_window") == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  insert(20);
  durable->store().ForceRoll();
  insert(20);
  durable->store().ForceRoll();
  fold.join();
  insert(10);
  // In memory: nothing dropped.
  const Query all = RangeCount(0, 0, 200000);
  EXPECT_EQ(durable->store().Execute(all).matched,
            static_cast<int64_t>(expect.size()));
  // A second fold checkpoints everything acked so far; a tail stays WAL-only.
  ASSERT_TRUE(durable->CheckpointNow());
  insert(15);
  durable.reset();

  durable = DurableIngestStore::Open(fx.data, fx.workload, options, &error);
  ASSERT_NE(durable, nullptr) << error;
  const durability::RecoveryInfo& rec = durable->recovery();
  EXPECT_TRUE(rec.recovered);
  EXPECT_EQ(rec.replay_cursor, 150);
  EXPECT_EQ(rec.replayed_rows, 15);
  EXPECT_EQ(durable->next_ordinal(), 165);
  // Recovered rows == acked rows, each exactly once (sums catch a row lost
  // and another applied twice even when the counts happen to agree).
  FullScanIndex reference(expect);
  ExpectSameAnswer(durable->store().Execute(all), reference.Execute(all));
  CheckAgainstReference(durable->store(), expect, fx.CheckQueries());
}

#endif  // TSUNAMI_FAULT_INJECTION

}  // namespace
}  // namespace tsunami
