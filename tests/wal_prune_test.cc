// LogManager's pending-flush pruning: every Flush folds the batches that
// landed by its `now` into the durable floors. Over a long run the pending
// list must stay bounded while every durability answer equals what a scan
// over the full, never-pruned flush history gives.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "env/env.h"
#include "gtest/gtest.h"
#include "sim/cpu_meter.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace mmdb {
namespace {

// One entry per Flush that issued or joined a batch, as the unpruned list
// held it.
struct FlushRef {
  Lsn last_lsn;
  double done;
  uint64_t epoch;
  std::vector<uint64_t> stream_bytes;
};

// The unpruned answers: linear scans over the whole history, exactly as
// LogManager answered before it pruned.
class UnprunedHistory {
 public:
  void Add(FlushRef f) { flushes_.push_back(std::move(f)); }

  Lsn DurableLsn(double now) const {
    Lsn durable = kInvalidLsn;
    for (const FlushRef& f : flushes_) {
      if (f.done <= now) durable = f.last_lsn;
    }
    return durable;
  }

  double WhenDurable(Lsn lsn, double now) const {
    for (const FlushRef& f : flushes_) {
      if (f.last_lsn >= lsn) return std::max(now, f.done);
    }
    return std::numeric_limits<double>::infinity();
  }

  uint64_t DurableEpoch(double now) const {
    uint64_t durable = 0;
    for (const FlushRef& f : flushes_) {
      if (f.done <= now) durable = f.epoch;
    }
    return durable;
  }

  std::vector<uint64_t> SurvivingBytes(double now, size_t streams) const {
    std::vector<uint64_t> surviving(streams, 0);
    for (const FlushRef& f : flushes_) {
      if (f.done <= now) surviving = f.stream_bytes;
    }
    return surviving;
  }

 private:
  std::vector<FlushRef> flushes_;
};

TEST(WalPruneTest, PendingStaysBoundedAndAnswersMatchUnprunedHistory) {
  constexpr uint32_t kStreams = 2;
  constexpr int kFlushes = 10000;
  auto env = NewMemEnv();
  CpuMeter meter;
  const SystemParams params = SystemParams::TestDefaults();

  // Size the request gaps from one flush's service time, so the stream of
  // requests mixes fresh batches, merges into a batch not yet started and
  // waits behind one still writing, at a load the devices keep up with.
  double service = 0.0;
  {
    auto probe_env = NewMemEnv();
    LogManager probe(probe_env.get(), "probe.log", params, &meter, false);
    MMDB_ASSERT_OK(probe.Open());
    LogRecord r = LogRecord::Update(1, 2, std::string(64, 'p'));
    probe.Append(&r);
    StatusOr<double> done = probe.Flush(0.0);
    MMDB_ASSERT_OK(done);
    service = *done;
  }
  ASSERT_GT(service, 0.0);

  LogManager log(env.get(), "wal.log", params, &meter, false,
                 /*min_flush_spacing=*/0.5 * service, kStreams);
  MMDB_ASSERT_OK(log.Open());
  UnprunedHistory history;
  Random rng(4242);
  double now = 0.0;
  for (int i = 0; i < kFlushes; ++i) {
    now += service * (0.1 + 1.9 * rng.NextDouble());
    const uint64_t records = 1 + rng.Uniform(3);
    for (uint64_t j = 0; j < records; ++j) {
      LogRecord r = LogRecord::Update(
          static_cast<TxnId>(i), rng.Uniform(1000),
          std::string(16 + rng.Uniform(200), 'u'));
      log.Append(&r, now, static_cast<uint32_t>(rng.Uniform(kStreams)));
    }
    StatusOr<double> done = log.Flush(now);
    MMDB_ASSERT_OK(done);
    std::vector<uint64_t> stream_bytes(kStreams);
    for (uint32_t k = 0; k < kStreams; ++k) {
      stream_bytes[k] = log.StreamAppendBytes(k);
    }
    history.Add(FlushRef{log.LastLsn(), *done, log.CurrentEpoch() - 1,
                         std::move(stream_bytes)});
    // Flushes overlap only a few deep, so almost the whole history must
    // have been folded away.
    ASSERT_LE(log.PendingFlushCount(), 64u) << "flush " << i;

    if (i % 50 != 49) continue;
    // Durability at the current time, and at later times a caller may ask
    // about before its next Flush.
    for (double t : {now, *done - 1e-9, *done, now + 3 * service}) {
      if (t < now) continue;
      ASSERT_EQ(log.DurableLsn(t), history.DurableLsn(t)) << "t=" << t;
      ASSERT_EQ(log.DurableEpoch(t), history.DurableEpoch(t)) << "t=" << t;
      for (Lsn lsn : {Lsn{1}, log.LastLsn() / 2 + 1, log.LastLsn() - 1,
                      log.LastLsn()}) {
        ASSERT_EQ(log.WhenDurable(lsn, t), history.WhenDurable(lsn, t))
            << "lsn=" << lsn << " t=" << t;
      }
    }
  }
  EXPECT_GT(log.DurableLsn(now), kInvalidLsn);

  // A crash before the in-flight batches land cuts each stream back to the
  // prefix the unpruned history says survived.
  const std::vector<uint64_t> surviving =
      history.SurvivingBytes(now, kStreams);
  MMDB_ASSERT_OK(log.Crash(now));
  for (uint32_t k = 0; k < kStreams; ++k) {
    StatusOr<uint64_t> size =
        env->FileSize(LogManager::StreamPath("wal.log", k));
    MMDB_ASSERT_OK(size);
    EXPECT_EQ(*size, kLogFileHeaderBytes + surviving[k]) << "stream " << k;
  }
}

}  // namespace
}  // namespace mmdb
