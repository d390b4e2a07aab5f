// Allocation budget of the transaction path. This binary replaces the
// global operator new with a counting version, so it must stay its own
// executable: the count covers every allocation the process makes.
//
// An engine on MemEnv is warmed up, then runs transactions shaped like the
// wallbench `oltp_uniform` workload: an inter-arrival AdvanceTime (which
// services group log flushes), then Read and Write on each of 5 distinct
// uniform records, then Commit. The allocations those calls make, divided
// by the commits, must stay under the budget below.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/workload.h"
#include "env/env.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace mmdb {
namespace {

constexpr uint32_t kRecordsPerTxn = 5;
constexpr int kWarmupTxns = 2000;
constexpr int kMeasuredTxns = 1000;
// Measured at 11.05 allocations per committed transaction: the
// Transaction object and its active-table node (2), five lock-table
// entries (5), the lists sized at first use (lock set, touched segments,
// pending entries, pending images: 4), and a share of the group log
// flushes. Before the flat pending set, span admission and inline sharers
// the same loop made 50.0.
constexpr double kBudgetPerTxn = 13.0;

TEST(TxnAllocTest, CommittedTransactionStaysUnderAllocationBudget) {
  auto env = NewMemEnv();
  EngineOptions opt;
  opt.params.db.db_words = 1ull << 20;  // 4 MiB, 32768 records of 128 B
  opt.params.txn.arrival_rate = 1000.0;
  opt.params.txn.updates_per_txn = kRecordsPerTxn;
  opt.algorithm = Algorithm::kFuzzyCopy;
  opt.checkpoint_mode = CheckpointMode::kPartial;
  opt.truncate_log_at_checkpoint = true;
  opt.shards = 1;
  auto opened = Engine::Open(opt, env.get());
  MMDB_ASSERT_OK(opened);
  Engine& e = **opened;

  const uint64_t n = e.db().num_records();
  Random rng(7);
  std::vector<std::string> images;
  for (uint32_t i = 0; i < kRecordsPerTxn; ++i) {
    images.push_back(MakeRecordImage(e.db().record_bytes(), i, i + 1));
  }
  RecordId records[kRecordsPerTxn];
  std::string value;
  uint64_t commits = 0;
  auto run = [&](int txns) {
    for (int t = 0; t < txns; ++t) {
      // Draw the inputs before the engine calls, as the workload does.
      const double gap = rng.Exponential(1.0 / opt.params.txn.arrival_rate);
      for (uint32_t i = 0; i < kRecordsPerTxn; ++i) {
        bool fresh;
        do {
          records[i] = rng.Uniform(n);
          fresh = true;
          for (uint32_t j = 0; j < i; ++j) fresh &= records[j] != records[i];
        } while (!fresh);
      }
      MMDB_ASSERT_OK(e.AdvanceTime(gap));
      Transaction* txn = e.Begin();
      for (uint32_t i = 0; i < kRecordsPerTxn; ++i) {
        MMDB_ASSERT_OK(e.Read(txn, records[i], &value));
        MMDB_ASSERT_OK(e.Write(txn, records[i], images[i]));
      }
      MMDB_ASSERT_OK(e.Commit(txn));
      ++commits;
    }
  };

  run(kWarmupTxns);
  const uint64_t commits_before = commits;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  run(kMeasuredTxns);
  const uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  const double per_txn = static_cast<double>(allocations) /
                         static_cast<double>(commits - commits_before);
  RecordProperty("allocations_per_txn", std::to_string(per_txn));
  std::printf("allocations per committed transaction: %.2f\n", per_txn);
  EXPECT_LT(per_txn, kBudgetPerTxn);
}

}  // namespace
}  // namespace mmdb
