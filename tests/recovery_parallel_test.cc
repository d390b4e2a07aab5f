// Parallel-recovery equivalence suite (DESIGN.md §19): recovery with a
// worker pool must be observably identical to the legacy serial path —
// same restored database bytes, same deterministic RecoveryStats, same
// segment-table state afterwards — for the clean path AND for the
// older-copy fallback paths (CRC rot, device read errors), where the
// parallel reload collects per-segment failures concurrently.
//
// Every scenario is replayed from scratch per thread count on a fresh
// in-memory Env, so the two runs share nothing but the script.

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "backup/backup_store.h"
#include "env/env.h"
#include "env/fault_injection_env.h"
#include "gtest/gtest.h"
#include "recovery/recovery_manager.h"
#include "tests/test_util.h"

namespace mmdb {
namespace {

// Everything a recovery run produces that must not depend on the thread
// count. Wall-clock members of RecoveryStats are deliberately absent.
struct Outcome {
  RecoveryStats stats;
  uint32_t db_checksum = 0;
  std::string db_bytes;
  // The first post-recovery checkpoint's shape — a proxy for the restored
  // SegmentTable state (recovery marks everything dirty either way).
  uint64_t post_ckpt_flushed = 0;
  uint64_t post_ckpt_skipped = 0;
};

void ExpectEquivalent(const Outcome& serial, const Outcome& parallel) {
  EXPECT_EQ(serial.stats.checkpoint_id, parallel.stats.checkpoint_id);
  EXPECT_EQ(serial.stats.copy, parallel.stats.copy);
  EXPECT_EQ(serial.stats.segments_loaded, parallel.stats.segments_loaded);
  EXPECT_EQ(serial.stats.segments_retried, parallel.stats.segments_retried);
  EXPECT_EQ(serial.stats.log_bytes_read, parallel.stats.log_bytes_read);
  EXPECT_EQ(serial.stats.records_scanned, parallel.stats.records_scanned);
  EXPECT_EQ(serial.stats.updates_applied, parallel.stats.updates_applied);
  EXPECT_EQ(serial.stats.txns_redone, parallel.stats.txns_redone);
  EXPECT_EQ(serial.stats.fell_back_to_older_copy,
            parallel.stats.fell_back_to_older_copy);
  // Modeled times are BIT-identical, not merely close: the cost model runs
  // on integer tallies that parallel decomposition cannot reorder.
  EXPECT_EQ(serial.stats.backup_read_seconds,
            parallel.stats.backup_read_seconds);
  EXPECT_EQ(serial.stats.log_read_seconds, parallel.stats.log_read_seconds);
  EXPECT_EQ(serial.stats.replay_cpu_seconds,
            parallel.stats.replay_cpu_seconds);
  EXPECT_EQ(serial.stats.total_seconds, parallel.stats.total_seconds);
  EXPECT_EQ(serial.db_checksum, parallel.db_checksum);
  EXPECT_EQ(serial.db_bytes, parallel.db_bytes);
  EXPECT_EQ(serial.post_ckpt_flushed, parallel.post_ckpt_flushed);
  EXPECT_EQ(serial.post_ckpt_skipped, parallel.post_ckpt_skipped);
}

class RecoveryParallelTest : public testing::Test {
 protected:
  void SetUp() override {
    // The env override would pin both runs to one width and make the
    // comparison vacuous.
    unsetenv("MMDB_RECOVERY_THREADS");
  }

  void Open(uint32_t recovery_threads) {
    engine_.reset();  // must go before the Env it references
    fenv_.reset();
    base_ = NewMemEnv();
    fenv_ = std::make_unique<FaultInjectionEnv>(base_.get());
    EngineOptions opt = TinyOptions();
    opt.recovery_threads = recovery_threads;
    auto engine = Engine::Open(opt, fenv_.get());
    MMDB_ASSERT_OK(engine);
    engine_ = std::move(*engine);
    expected_.clear();
  }

  // One-shot committed transaction, recorded for the final image audit.
  void Commit(RecordId r, uint64_t marker) {
    std::string image = MakeRecordImage(engine_->db().record_bytes(), r,
                                        marker);
    MMDB_ASSERT_OK(engine_->Apply({{r, image}}).status());
    expected_[r] = std::move(image);
  }

  void Settle() {
    MMDB_ASSERT_OK(engine_->FlushLog());
    MMDB_ASSERT_OK(engine_->AdvanceTime(1.0));
  }

  // Flips one byte in segment `s`'s data slot, leaving the CRC stale.
  void CorruptSegment(uint32_t copy, SegmentId s) {
    std::string path = engine_->options().dir + "/backup_" +
                       std::to_string(copy) + ".db";
    auto file = base_->NewRandomWriteFile(path);
    MMDB_ASSERT_OK(file);
    const uint64_t off =
        BackupStore::SlotOffsetFor(engine_->params().db, s) + 17;
    std::string byte;
    MMDB_ASSERT_OK((*file)->Read(off, 1, &byte));
    byte[0] = static_cast<char>(byte[0] ^ 0x40);
    MMDB_ASSERT_OK((*file)->WriteAt(off, byte));
    MMDB_ASSERT_OK((*file)->Close());
  }

  Outcome FinishRecovery(uint32_t want_threads) {
    Outcome out;
    auto stats = engine_->Recover();
    MMDB_EXPECT_OK(stats);
    // Under the MMDB_INSTANT_RECOVERY=1 lane Recover() returns before the
    // segments reload; drain so the captured stats and bytes are the
    // final state — which must be bit-identical to blocking recovery's
    // (an on-demand fallback refines the provisional stats).
    MMDB_EXPECT_OK(engine_->DrainRecovery());
    if (stats.ok()) {
      out.stats = engine_->last_recovery();
      EXPECT_EQ(stats->threads_used, want_threads);
      EXPECT_EQ(stats->thread_busy_seconds.size(), want_threads);
    }
    out.db_checksum = engine_->db().Checksum();
    out.db_bytes.assign(engine_->db().data(), engine_->db().size_bytes());
    // Audit committed images before mutating anything further.
    for (const auto& [r, image] : expected_) {
      EXPECT_EQ(engine_->ReadRecordRaw(r), std::string_view(image))
          << "record " << r;
    }
    MMDB_EXPECT_OK(engine_->RunCheckpointToCompletion());
    out.post_ckpt_flushed = engine_->checkpointer().last_stats().segments_flushed;
    out.post_ckpt_skipped = engine_->checkpointer().last_stats().segments_skipped;
    return out;
  }

  // --- scenarios ---------------------------------------------------------

  // Bulk workload with checkpoints running, plus a post-checkpoint tail.
  Outcome RunClean(uint32_t threads) {
    Open(threads);
    WorkloadOptions wopt;
    wopt.duration = 1.0;
    WorkloadDriver driver(engine_.get(), wopt);
    MMDB_EXPECT_OK(driver.Run().status());
    Commit(1, 901);
    Commit(1500, 902);
    Settle();
    MMDB_EXPECT_OK(engine_->Crash());
    return FinishRecovery(threads);
  }

  // Newest copy has CRC-rotted segments: the parallel reload must collect
  // exactly that failed set and re-read it from the older copy.
  Outcome RunCrcFallback(uint32_t threads) {
    Open(threads);
    for (RecordId r = 0; r < 2048; r += 64) Commit(r, 1);
    MMDB_EXPECT_OK(engine_->RunCheckpointToCompletion());  // id 1 -> copy 1
    for (RecordId r = 16; r < 2048; r += 128) Commit(r, 2);
    MMDB_EXPECT_OK(engine_->RunCheckpointToCompletion());  // id 2 -> copy 0
    Commit(70, 3);
    Commit(700, 4);
    Settle();
    MMDB_EXPECT_OK(engine_->Crash());
    for (SegmentId s : {SegmentId{0}, SegmentId{3}, SegmentId{7}}) {
      CorruptSegment(/*copy=*/0, s);
    }
    Outcome out = FinishRecovery(threads);
    EXPECT_TRUE(out.stats.fell_back_to_older_copy);
    EXPECT_EQ(out.stats.checkpoint_id, 1u);
    EXPECT_EQ(out.stats.copy, 1u);
    EXPECT_EQ(out.stats.segments_retried, 3u);
    // 64 segments: 61 first-attempt survivors + 3 older-copy re-reads.
    EXPECT_EQ(out.stats.segments_loaded, 64u);
    return out;
  }

  // The device, not the data, fails once mid-reload. Which segment's read
  // takes the hit depends on scheduling, but every deterministic outcome —
  // restore point, retry count, replayed suffix, final bytes — must not.
  Outcome RunReadErrorFallback(uint32_t threads) {
    Open(threads);
    Commit(5, 1);
    MMDB_EXPECT_OK(engine_->RunCheckpointToCompletion());  // id 1 -> copy 1
    Commit(600, 2);
    MMDB_EXPECT_OK(engine_->RunCheckpointToCompletion());  // id 2 -> copy 0
    Commit(1200, 3);
    Settle();
    MMDB_EXPECT_OK(engine_->Crash());
    fenv_->InjectFault(
        {FaultKind::kReadError, "backup_0.db", fenv_->op_count(), 1});
    Outcome out = FinishRecovery(threads);
    EXPECT_TRUE(out.stats.fell_back_to_older_copy);
    EXPECT_EQ(out.stats.checkpoint_id, 1u);
    EXPECT_EQ(out.stats.segments_retried, 1u);
    return out;
  }

  std::unique_ptr<Env> base_;
  std::unique_ptr<FaultInjectionEnv> fenv_;
  std::unique_ptr<Engine> engine_;
  std::map<RecordId, std::string> expected_;
};

TEST_F(RecoveryParallelTest, CleanPathIsBitIdenticalAcrossThreadCounts) {
  Outcome serial = RunClean(1);
  Outcome parallel = RunClean(4);
  ASSERT_GT(serial.stats.updates_applied, 0u);
  ASSERT_GT(serial.stats.segments_loaded, 0u);
  ExpectEquivalent(serial, parallel);
}

TEST_F(RecoveryParallelTest, CrcFallbackIsBitIdenticalAcrossThreadCounts) {
  Outcome serial = RunCrcFallback(1);
  Outcome parallel = RunCrcFallback(4);
  ExpectEquivalent(serial, parallel);
}

TEST_F(RecoveryParallelTest, ReadErrorFallbackIsEquivalentAcrossThreadCounts) {
  Outcome serial = RunReadErrorFallback(1);
  Outcome parallel = RunReadErrorFallback(4);
  ExpectEquivalent(serial, parallel);
}

TEST_F(RecoveryParallelTest, RepeatedParallelRecoveriesReuseThePool) {
  // Crash/recover twice on one engine: the lazily built pool serves both
  // rounds (and the second recovery still matches a fresh serial run).
  Open(4);
  Commit(10, 1);
  MMDB_EXPECT_OK(engine_->RunCheckpointToCompletion());
  Commit(20, 2);
  Settle();
  MMDB_EXPECT_OK(engine_->Crash());
  auto first = engine_->Recover();
  MMDB_ASSERT_OK(first);
  EXPECT_EQ(first->threads_used, 4u);
  Commit(30, 3);
  Settle();
  MMDB_EXPECT_OK(engine_->Crash());
  auto second = engine_->Recover();
  MMDB_ASSERT_OK(second);
  EXPECT_EQ(second->threads_used, 4u);
  for (const auto& [r, image] : expected_) {
    EXPECT_EQ(engine_->ReadRecordRaw(r), std::string_view(image));
  }
}

TEST_F(RecoveryParallelTest, ResolveThreadsHonorsEnvThenOptionThenHardware) {
  unsetenv("MMDB_RECOVERY_THREADS");
  EXPECT_EQ(RecoveryManager::ResolveThreads(3), 3u);
  EXPECT_EQ(RecoveryManager::ResolveThreads(1), 1u);
  EXPECT_GE(RecoveryManager::ResolveThreads(0), 1u);  // hardware width
  setenv("MMDB_RECOVERY_THREADS", "2", 1);
  EXPECT_EQ(RecoveryManager::ResolveThreads(8), 2u);
  setenv("MMDB_RECOVERY_THREADS", "not-a-number", 1);
  EXPECT_EQ(RecoveryManager::ResolveThreads(8), 8u);
  setenv("MMDB_RECOVERY_THREADS", "-4", 1);
  EXPECT_EQ(RecoveryManager::ResolveThreads(8), 8u);
  unsetenv("MMDB_RECOVERY_THREADS");
}

}  // namespace
}  // namespace mmdb
