// Tests for wal/: record encoding, framing, the LogManager's modeled
// durability and crash semantics, and the LogReader's scans.

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "env/env.h"
#include "gtest/gtest.h"
#include "sim/cpu_meter.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"

namespace mmdb {
namespace {

TEST(LogRecordTest, UpdateRoundTrip) {
  LogRecord r = LogRecord::Update(7, 123, std::string(128, 'q'));
  r.lsn = 99;
  std::string payload;
  r.EncodeTo(&payload);
  LogRecord out;
  MMDB_ASSERT_OK(LogRecord::DecodeFrom(payload, &out));
  EXPECT_EQ(out, r);
}

TEST(LogRecordTest, CommitAbortRoundTrip) {
  for (LogRecord r : {LogRecord::Commit(5), LogRecord::Abort(6)}) {
    r.lsn = 3;
    std::string payload;
    r.EncodeTo(&payload);
    LogRecord out;
    MMDB_ASSERT_OK(LogRecord::DecodeFrom(payload, &out));
    EXPECT_EQ(out, r);
  }
}

TEST(LogRecordTest, BeginCheckpointWithActiveList) {
  LogRecord r = LogRecord::BeginCheckpoint(
      4, 1000, {{10, kInvalidLsn}, {11, 55}});
  r.lsn = 77;
  std::string payload;
  r.EncodeTo(&payload);
  LogRecord out;
  MMDB_ASSERT_OK(LogRecord::DecodeFrom(payload, &out));
  EXPECT_EQ(out, r);
  ASSERT_EQ(out.active_txns.size(), 2u);
  EXPECT_EQ(out.active_txns[1].first_lsn, 55u);
}

TEST(LogRecordTest, EndCheckpointRoundTrip) {
  LogRecord r = LogRecord::EndCheckpoint(9);
  r.lsn = 80;
  std::string payload;
  r.EncodeTo(&payload);
  LogRecord out;
  MMDB_ASSERT_OK(LogRecord::DecodeFrom(payload, &out));
  EXPECT_EQ(out, r);
}

std::vector<LogRecord> AllRecordShapes() {
  std::vector<LogRecord> records = {
      LogRecord::Update(7, 123, std::string(128, 'q')),
      LogRecord::Update(1, 0, ""),
      LogRecord::Delta(9, 456, 24, -17),
      LogRecord::Commit(5),
      LogRecord::Abort(6),
      LogRecord::BeginCheckpoint(4, 1000, {{10, kInvalidLsn}, {11, 55}}),
      LogRecord::BeginCheckpoint(2, 0, {}),
      LogRecord::EndCheckpoint(9),
  };
  Lsn lsn = 1;
  for (LogRecord& r : records) r.lsn = (lsn += 1000000);  // multi-byte varints
  return records;
}

TEST(LogRecordTest, EncodedSizeMatchesEncodeToForEveryShape) {
  // EncodedSize is computed arithmetically (the append path pre-reserves
  // with it); it must agree exactly with the bytes EncodeTo produces.
  for (const LogRecord& r : AllRecordShapes()) {
    std::string payload;
    r.EncodeTo(&payload);
    EXPECT_EQ(r.EncodedSize(), payload.size()) << r.DebugString();
  }
}

TEST(LogRecordTest, EncodeLogFrameLayoutAndAppendBehavior) {
  // The frame encoder writes [u32 len][payload][u32 masked-crc][u32 len]
  // and APPENDS: pre-existing bytes in dst (the log tail) stay untouched.
  for (const LogRecord& r : AllRecordShapes()) {
    std::string payload;
    r.EncodeTo(&payload);
    std::string frame;
    frame.append("PREFIX");
    EncodeLogFrame(r, &frame);
    ASSERT_EQ(frame.size(), 6 + payload.size() + kLogFrameOverhead)
        << r.DebugString();
    EXPECT_EQ(frame.substr(0, 6), "PREFIX");
    std::string_view body(frame.data() + 6, frame.size() - 6);
    EXPECT_EQ(DecodeFixed32(body.data()), payload.size());
    EXPECT_EQ(body.substr(4, payload.size()), payload);
    uint32_t stored_crc = DecodeFixed32(body.data() + 4 + payload.size());
    EXPECT_EQ(crc32c::Unmask(stored_crc), crc32c::Value(payload));
    EXPECT_EQ(DecodeFixed32(body.data() + 8 + payload.size()),
              payload.size());
  }
}

TEST(LogRecordTest, DecodeRejectsGarbage) {
  LogRecord out;
  EXPECT_TRUE(LogRecord::DecodeFrom("", &out).IsCorruption());
  EXPECT_TRUE(LogRecord::DecodeFrom("\x63", &out).IsCorruption());
  // Valid record with trailing junk.
  LogRecord r = LogRecord::Commit(1);
  std::string payload;
  r.EncodeTo(&payload);
  payload += "junk";
  EXPECT_TRUE(LogRecord::DecodeFrom(payload, &out).IsCorruption());
}

TEST(LogRecordTest, DataRecordViewAgreesWithFullDecode) {
  // Replay decodes data frames through the zero-copy view; it must see
  // exactly the fields, and reject exactly the payloads, the full decode
  // does.
  for (const LogRecord& r : AllRecordShapes()) {
    std::string payload;
    r.EncodeTo(&payload);
    DataRecordView view;
    Status st = DataRecordView::DecodeFrom(payload, &view);
    if (r.type != LogRecordType::kUpdate && r.type != LogRecordType::kDelta) {
      EXPECT_TRUE(st.IsInvalidArgument()) << r.DebugString();
      continue;
    }
    MMDB_ASSERT_OK(st);
    EXPECT_EQ(view.type, r.type);
    EXPECT_EQ(view.lsn, r.lsn);
    EXPECT_EQ(view.txn_id, r.txn_id);
    EXPECT_EQ(view.record_id, r.record_id);
    EXPECT_EQ(view.image, r.image);
    EXPECT_EQ(view.field_offset, r.field_offset);
    EXPECT_EQ(view.delta, r.delta);
    LogRecord full;
    for (std::string bad : {payload.substr(0, payload.size() - 1),
                            payload + "junk"}) {
      Status want = LogRecord::DecodeFrom(bad, &full);
      Status got = DataRecordView::DecodeFrom(bad, &view);
      EXPECT_TRUE(got.IsCorruption()) << r.DebugString();
      EXPECT_EQ(got.ToString(), want.ToString()) << r.DebugString();
    }
  }
}

class LogManagerTest : public testing::Test {
 protected:
  void Open(bool stable = false) {
    env_ = NewMemEnv();
    log_ = std::make_unique<LogManager>(env_.get(), "wal.log",
                                        SystemParams::TestDefaults(), &meter_,
                                        stable);
    MMDB_ASSERT_OK(log_->Open());
  }

  Lsn Append(TxnId txn) {
    LogRecord r = LogRecord::Commit(txn);
    return log_->Append(&r);
  }

  std::unique_ptr<Env> env_;
  CpuMeter meter_;
  std::unique_ptr<LogManager> log_;
};

TEST_F(LogManagerTest, LsnsAreDense) {
  Open();
  EXPECT_EQ(Append(1), 1u);
  EXPECT_EQ(Append(2), 2u);
  EXPECT_EQ(log_->NextLsn(), 3u);
  EXPECT_EQ(log_->LastLsn(), 2u);
}

TEST_F(LogManagerTest, DurabilityTracksFlushCompletion) {
  Open();
  Append(1);
  EXPECT_EQ(log_->DurableLsn(0.0), kInvalidLsn);
  double done = *log_->Flush(0.0);
  EXPECT_GT(done, 0.0);
  EXPECT_EQ(log_->DurableLsn(done - 1e-9), kInvalidLsn);
  EXPECT_EQ(log_->DurableLsn(done), 1u);
  // WhenDurable: already durable -> now; future flush -> completion.
  Append(2);
  EXPECT_EQ(log_->WhenDurable(1, done + 1.0), done + 1.0);
  EXPECT_TRUE(std::isinf(log_->WhenDurable(2, done + 1.0)));
  double done2 = *log_->Flush(done + 1.0);
  EXPECT_EQ(log_->WhenDurable(2, done + 1.0), done2);
}

TEST_F(LogManagerTest, StableTailDurableImmediately) {
  Open(/*stable=*/true);
  Lsn lsn = Append(1);
  EXPECT_EQ(log_->DurableLsn(0.0), lsn);
  EXPECT_EQ(log_->WhenDurable(lsn, 0.0), 0.0);
}

TEST_F(LogManagerTest, CrashDropsUnflushedAndUnlandedBytes) {
  Open();
  Append(1);
  double done1 = *log_->Flush(0.0);  // lands at done1
  Append(2);
  MMDB_ASSERT_OK(log_->Flush(done1));  // lands later
  Append(3);           // never flushed
  // Crash after the first flush landed but before the second.
  MMDB_ASSERT_OK(log_->Crash(done1));
  auto reader = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader);
  EXPECT_EQ(reader->num_records(), 1u);
}

TEST_F(LogManagerTest, StableCrashKeepsEverything) {
  Open(/*stable=*/true);
  Append(1);
  MMDB_ASSERT_OK(log_->Flush(0.0));
  Append(2);
  Append(3);
  MMDB_ASSERT_OK(log_->Crash(0.0));
  auto reader = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader);
  EXPECT_EQ(reader->num_records(), 3u);
}

TEST_F(LogManagerTest, OpenExistingContinuesLsnsAndOffsets) {
  Open();
  Append(1);
  Append(2);
  MMDB_ASSERT_OK(log_->Flush(0.0));
  MMDB_ASSERT_OK(log_->Crash(100.0));  // everything landed

  auto reader = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader);
  ASSERT_EQ(reader->num_records(), 2u);

  LogManager reopened(env_.get(), "wal.log", SystemParams::TestDefaults(),
                      &meter_, false);
  MMDB_ASSERT_OK(reopened.OpenExisting(reader->valid_bytes(), 3));
  EXPECT_EQ(reopened.NextLsn(), 3u);
  EXPECT_EQ(reopened.NextOffset(), reader->valid_bytes());
  // The recovered prefix counts as durable.
  EXPECT_EQ(reopened.DurableLsn(0.0), 2u);
  EXPECT_EQ(reopened.WhenDurable(2, 5.0), 5.0);
  // New appends work and survive their own flush.
  LogRecord r = LogRecord::Commit(9);
  EXPECT_EQ(reopened.Append(&r), 3u);
  MMDB_ASSERT_OK(reopened.Flush(0.0));
  MMDB_ASSERT_OK(reopened.Crash(1000.0));
  auto reader2 = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader2);
  EXPECT_EQ(reader2->num_records(), 3u);
}

TEST_F(LogManagerTest, TruncateBeforeDropsPrefixKeepsOffsets) {
  Open();
  Lsn l1 = Append(1);
  (void)l1;
  MMDB_ASSERT_OK(log_->Flush(0.0));
  uint64_t cut = log_->NextOffset();
  Lsn l2 = Append(2);
  MMDB_ASSERT_OK(log_->Flush(10.0));
  MMDB_ASSERT_OK(log_->Crash(1000.0));  // settle everything into the file

  LogManager reopened(env_.get(), "wal.log", SystemParams::TestDefaults(),
                      &meter_, false);
  MMDB_ASSERT_OK(reopened.OpenExisting(log_->NextOffset(), 3));
  auto dropped = reopened.TruncateBefore(cut);
  MMDB_ASSERT_OK(dropped);
  EXPECT_EQ(*dropped, cut);
  EXPECT_EQ(reopened.BaseOffset(), cut);
  // Idempotent / already-truncated cuts are no-ops.
  auto again = reopened.TruncateBefore(cut);
  MMDB_ASSERT_OK(again);
  EXPECT_EQ(*again, 0u);
  // Past-the-end cuts are rejected.
  EXPECT_FALSE(reopened.TruncateBefore(reopened.NextOffset() + 100).ok());

  // The surviving record is still readable at its ORIGINAL offset.
  auto reader = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader);
  EXPECT_EQ(reader->base_offset(), cut);
  EXPECT_EQ(reader->num_records(), 1u);
  auto rec = reader->RecordAt(cut);
  MMDB_ASSERT_OK(rec);
  EXPECT_EQ(rec->lsn, l2);
  EXPECT_TRUE(reader->RecordAt(0).status().IsNotFound());
}

TEST_F(LogManagerTest, AppendsAfterTruncationSurvive) {
  Open();
  Append(1);
  MMDB_ASSERT_OK(log_->Flush(0.0));
  uint64_t cut = log_->NextOffset();
  MMDB_ASSERT_OK(log_->TruncateBefore(cut).status());
  Lsn l2 = Append(2);
  MMDB_ASSERT_OK(log_->Flush(100.0));
  MMDB_ASSERT_OK(log_->Crash(10000.0));
  auto reader = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader);
  ASSERT_EQ(reader->num_records(), 1u);
  auto rec = reader->RecordAt(cut);
  MMDB_ASSERT_OK(rec);
  EXPECT_EQ(rec->lsn, l2);
}

class LogReaderTest : public testing::Test {
 protected:
  std::string MakeLog(const std::vector<LogRecord>& records) {
    std::string bytes;
    Lsn lsn = 1;
    for (LogRecord r : records) {
      r.lsn = lsn++;
      EncodeLogFrame(r, &bytes);
    }
    return bytes;
  }
};

TEST_F(LogReaderTest, ForwardScanSeesAllRecords) {
  LogReader reader(MakeLog({LogRecord::Commit(1), LogRecord::Commit(2),
                            LogRecord::Commit(3)}));
  EXPECT_FALSE(reader.truncated_tail());
  std::vector<TxnId> seen;
  MMDB_ASSERT_OK(reader.ScanForward(0, [&](const LogRecord& r, uint64_t) {
    seen.push_back(r.txn_id);
    return true;
  }));
  EXPECT_EQ(seen, (std::vector<TxnId>{1, 2, 3}));
}

TEST_F(LogReaderTest, BackwardScanReverses) {
  LogReader reader(MakeLog({LogRecord::Commit(1), LogRecord::Commit(2)}));
  std::vector<TxnId> seen;
  MMDB_ASSERT_OK(reader.ScanBackward([&](const LogRecord& r, uint64_t) {
    seen.push_back(r.txn_id);
    return true;
  }));
  EXPECT_EQ(seen, (std::vector<TxnId>{2, 1}));
}

TEST_F(LogReaderTest, ScanFromSavedOffset) {
  std::string bytes = MakeLog({LogRecord::Commit(1)});
  uint64_t offset = bytes.size();
  LogRecord marker = LogRecord::BeginCheckpoint(1, 0, {});
  marker.lsn = 2;
  EncodeLogFrame(marker, &bytes);
  LogRecord after = LogRecord::Commit(3);
  after.lsn = 3;
  EncodeLogFrame(after, &bytes);

  LogReader reader(std::move(bytes));
  std::vector<Lsn> seen;
  MMDB_ASSERT_OK(
      reader.ScanForward(offset, [&](const LogRecord& r, uint64_t) {
        seen.push_back(r.lsn);
        return true;
      }));
  EXPECT_EQ(seen, (std::vector<Lsn>{2, 3}));
  // Non-boundary offsets are rejected.
  EXPECT_FALSE(reader.ScanForward(offset + 1, [](const LogRecord&, uint64_t) {
    return true;
  }).ok());
}

TEST_F(LogReaderTest, TornTailStopsCleanly) {
  std::string bytes = MakeLog({LogRecord::Commit(1), LogRecord::Commit(2)});
  uint64_t good = bytes.size();
  bytes += MakeLog({LogRecord::Commit(3)}).substr(0, 7);  // partial frame
  LogReader reader(std::move(bytes));
  EXPECT_TRUE(reader.truncated_tail());
  EXPECT_EQ(reader.num_records(), 2u);
  EXPECT_EQ(reader.valid_bytes(), good);
}

TEST_F(LogReaderTest, CorruptPayloadStopsAtCrc) {
  std::string bytes = MakeLog({LogRecord::Commit(1), LogRecord::Commit(2)});
  bytes[6] ^= 0x40;  // flip a payload bit in the first frame
  LogReader reader(std::move(bytes));
  EXPECT_TRUE(reader.truncated_tail());
  EXPECT_EQ(reader.num_records(), 0u);
}

TEST_F(LogReaderTest, FindLastCompleteCheckpoint) {
  std::string bytes;
  Lsn lsn = 1;
  auto append = [&](LogRecord r) {
    r.lsn = lsn++;
    size_t at = bytes.size();
    EncodeLogFrame(r, &bytes);
    return at;
  };
  append(LogRecord::Commit(1));
  uint64_t begin1 = append(LogRecord::BeginCheckpoint(1, 0, {}));
  append(LogRecord::EndCheckpoint(1));
  uint64_t begin2 = append(LogRecord::BeginCheckpoint(2, 0, {}));
  append(LogRecord::EndCheckpoint(2));
  append(LogRecord::BeginCheckpoint(3, 0, {}));  // incomplete: no end

  LogReader reader(std::move(bytes));
  auto marker = reader.FindLastCompleteCheckpoint();
  MMDB_ASSERT_OK(marker);
  EXPECT_EQ(marker->checkpoint_id, 2u);
  EXPECT_EQ(marker->begin_offset, begin2);
  EXPECT_NE(marker->begin_offset, begin1);
}

TEST_F(LogReaderTest, NoCompleteCheckpointIsNotFound) {
  LogReader reader(
      MakeLog({LogRecord::Commit(1), LogRecord::BeginCheckpoint(1, 0, {})}));
  EXPECT_TRUE(reader.FindLastCompleteCheckpoint().status().IsNotFound());
}

TEST_F(LogReaderTest, RecordAtExactOffsets) {
  std::string bytes = MakeLog({LogRecord::Commit(1)});
  uint64_t second = bytes.size();
  LogRecord r2 = LogRecord::Commit(2);
  r2.lsn = 2;
  EncodeLogFrame(r2, &bytes);
  LogReader reader(std::move(bytes));
  auto rec = reader.RecordAt(second);
  MMDB_ASSERT_OK(rec);
  EXPECT_EQ(rec->txn_id, 2u);
  EXPECT_TRUE(reader.RecordAt(second + 1).status().IsNotFound());
}

// LogReader::Open against real, then deliberately damaged, engine-written
// log files. The dividing line under test: damage at the END of the file
// (a torn flush) is expected and survivable, while damage in the MIDDLE —
// with intact frames after it — means committed transactions would be
// silently dropped, and must surface as Corruption.
class DamagedLogFileTest : public testing::Test {
 protected:
  // Writes a real log file with three identically-sized commit frames and
  // returns its raw bytes (16-byte file header + 3 frames).
  void WriteLog() {
    env_ = NewMemEnv();
    LogManager log(env_.get(), "wal.log", SystemParams::TestDefaults(),
                   &meter_, /*stable_log_tail=*/false);
    MMDB_ASSERT_OK(log.Open());
    for (TxnId t = 1; t <= 3; ++t) {
      LogRecord r = LogRecord::Commit(t);
      log.Append(&r);
    }
    MMDB_ASSERT_OK(log.Flush(0.0));
    MMDB_ASSERT_OK(env_->ReadFileToString("wal.log", &bytes_));
    frame_bytes_ = (bytes_.size() - kLogFileHeaderBytes) / 3;
    ASSERT_EQ(bytes_.size(), kLogFileHeaderBytes + 3 * frame_bytes_);
  }

  void Rewrite() {
    MMDB_ASSERT_OK(env_->WriteStringToFile("wal.log", bytes_, /*sync=*/true));
  }

  std::unique_ptr<Env> env_;
  CpuMeter meter_;
  std::string bytes_;
  uint64_t frame_bytes_ = 0;
};

TEST_F(DamagedLogFileTest, MissingFileIsNotFound) {
  auto env = NewMemEnv();
  auto reader = LogReader::Open(env.get(), "nope.log");
  EXPECT_TRUE(reader.status().IsNotFound());
}

TEST_F(DamagedLogFileTest, FlippedHeaderBitIsCorruptionNotEmptyLog) {
  WriteLog();
  bytes_[1] ^= 0x08;  // damage the magic number
  Rewrite();
  auto reader = LogReader::Open(env_.get(), "wal.log");
  EXPECT_TRUE(reader.status().IsCorruption());
  EXPECT_NE(reader.status().ToString().find("not a log file"),
            std::string::npos);
}

TEST_F(DamagedLogFileTest, UnsupportedVersionIsCorruption) {
  WriteLog();
  bytes_[4] = static_cast<char>(0x7f);  // version field
  Rewrite();
  auto reader = LogReader::Open(env_.get(), "wal.log");
  EXPECT_TRUE(reader.status().IsCorruption());
  EXPECT_NE(reader.status().ToString().find("version"), std::string::npos);
}

TEST_F(DamagedLogFileTest, MidLogBitFlipIsCorruptionNotATornTail) {
  WriteLog();
  // Flip one payload bit of the SECOND frame: the first and third frames
  // are intact, so resuming at the last good frame would drop commit 3.
  bytes_[kLogFileHeaderBytes + frame_bytes_ + 6] ^= 0x10;
  Rewrite();
  auto reader = LogReader::Open(env_.get(), "wal.log");
  EXPECT_TRUE(reader.status().IsCorruption());
}

TEST_F(DamagedLogFileTest, OverrunLengthFieldIsCorruption) {
  WriteLog();
  // An absurd length in the second frame's header makes the frame overrun
  // the file; with frame 3 intact after it, this is mid-log damage, not a
  // short final write.
  bytes_[kLogFileHeaderBytes + frame_bytes_ + 0] = static_cast<char>(0xff);
  bytes_[kLogFileHeaderBytes + frame_bytes_ + 1] = static_cast<char>(0xff);
  bytes_[kLogFileHeaderBytes + frame_bytes_ + 2] = static_cast<char>(0xff);
  Rewrite();
  auto reader = LogReader::Open(env_.get(), "wal.log");
  EXPECT_TRUE(reader.status().IsCorruption());
}

TEST_F(DamagedLogFileTest, TruncatedFinalFrameIsASurvivableTornTail) {
  WriteLog();
  bytes_.resize(bytes_.size() - 5);  // tear the last frame
  Rewrite();
  auto reader = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader);
  EXPECT_TRUE(reader->truncated_tail());
  EXPECT_EQ(reader->num_records(), 2u);
  EXPECT_EQ(reader->valid_bytes(), 2 * frame_bytes_);
}

TEST_F(DamagedLogFileTest, CorruptTailFrameIsAlsoSurvivable) {
  WriteLog();
  // Damage confined to the LAST frame reads as a torn tail even at full
  // length: nothing valid follows it, so nothing committed is lost beyond
  // the tail itself.
  bytes_[kLogFileHeaderBytes + 2 * frame_bytes_ + 6] ^= 0x10;
  Rewrite();
  auto reader = LogReader::Open(env_.get(), "wal.log");
  MMDB_ASSERT_OK(reader);
  EXPECT_TRUE(reader->truncated_tail());
  EXPECT_EQ(reader->num_records(), 2u);
}

}  // namespace
}  // namespace mmdb
