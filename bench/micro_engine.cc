// Microbenchmarks (google-benchmark, real wall-clock time) for the hot
// paths of the engine: transaction commit, log append/encode, CRC, segment
// staging, checkpoint sweeps, and recovery replay. These measure the
// implementation itself, complementing the figure benches which measure
// the modeled (virtual-time) behaviour.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>

#include "benchmark/benchmark.h"
#include "core/engine.h"
#include "core/workload.h"
#include "env/env.h"
#include "txn/lock_manager.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace mmdb {
namespace {

EngineOptions BenchOptions(Algorithm a = Algorithm::kFuzzyCopy) {
  EngineOptions opt;
  opt.params.db.db_words = 1ull << 20;  // 128 segments of 8192 words
  opt.algorithm = a;
  return opt;
}

// The dispatched production kernel (labelled with the kernel it resolved
// to), the slice-by-8 fallback and the byte-at-a-time reference, side by
// side. 150 B is a typical WAL frame payload (one CRC per appended record);
// 32768 B is one backup segment (8192 words x 4 B), checksummed on every
// checkpoint write and every restart reload.
void CrcArgs(benchmark::internal::Benchmark* b) {
  for (int64_t n : {128, 150, 4096, 32768}) b->Arg(n);
}

void BM_Crc32c(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel(crc32c::KernelName());
}
BENCHMARK(BM_Crc32c)->Apply(CrcArgs);

void BM_Crc32cPortable(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crc32c::ExtendPortable(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel("slice_by_8");
}
BENCHMARK(BM_Crc32cPortable)->Apply(CrcArgs);

void BM_Crc32cBytewise(benchmark::State& state) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crc32c::ExtendBytewise(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  state.SetLabel("bytewise_reference");
}
BENCHMARK(BM_Crc32cBytewise)->Apply(CrcArgs);

void BM_LogRecordEncode(benchmark::State& state) {
  LogRecord record = LogRecord::Update(12345, 67890, std::string(128, 'q'));
  record.lsn = 1u << 20;
  std::string out;
  for (auto _ : state) {
    out.clear();
    EncodeLogFrame(record, &out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_LogRecordEncode);

void BM_LogRecordDecode(benchmark::State& state) {
  LogRecord record = LogRecord::Update(12345, 67890, std::string(128, 'q'));
  record.lsn = 1u << 20;
  std::string payload;
  record.EncodeTo(&payload);
  LogRecord out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(LogRecord::DecodeFrom(payload, &out));
  }
}
BENCHMARK(BM_LogRecordDecode);

void BM_MakeRecordImage(benchmark::State& state) {
  uint64_t marker = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeRecordImage(128, 42, marker++));
  }
}
BENCHMARK(BM_MakeRecordImage);

// Arg 0: updates per transaction. Arg 1: observability on (1) or off (0) —
// the pairs quantify the registry/trace cost on the hottest path (the
// acceptance bar is "no measurable difference").
//
// Every kCommitsPerCheckpoint commits, outside the timed region, the log
// is flushed, the virtual clock moves past the flush, and a checkpoint
// runs with log truncation. Without that the clock never advances, the
// WAL grows without bound and every iteration runs against a bigger log
// than the one before.
constexpr int64_t kCommitsPerCheckpoint = 8192;

// Counts one commit; every kCommitsPerCheckpoint of them runs the flush,
// clock move and truncating checkpoint above outside the timed region.
// False (with the benchmark marked skipped) if any step failed.
bool CheckpointWhenDue(benchmark::State& state, Engine& e,
                       int64_t* since_checkpoint) {
  if (++*since_checkpoint < kCommitsPerCheckpoint) return true;
  state.PauseTiming();
  *since_checkpoint = 0;
  Status st = e.FlushLog();
  if (st.ok()) st = e.AdvanceTime(1.0);
  if (st.ok()) st = e.RunCheckpointToCompletion();
  state.ResumeTiming();
  if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  return st.ok();
}

void BM_TxnCommit(benchmark::State& state) {
  auto env = NewMemEnv();
  EngineOptions opt = BenchOptions();
  opt.enable_metrics = state.range(1) != 0;
  opt.truncate_log_at_checkpoint = true;
  auto engine = Engine::Open(opt, env.get());
  if (!engine.ok()) {
    state.SkipWithError(engine.status().ToString().c_str());
    return;
  }
  state.SetLabel(opt.enable_metrics ? "metrics_on" : "metrics_off");
  Engine& e = **engine;
  Random rng(1);
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  std::string image = MakeRecordImage(e.db().record_bytes(), 0, 0);
  int64_t since_checkpoint = 0;
  for (auto _ : state) {
    Transaction* t = e.Begin();
    for (uint32_t i = 0; i < k; ++i) {
      RecordId r = rng.Uniform(e.db().num_records());
      (void)e.Write(t, r, image);
    }
    benchmark::DoNotOptimize(e.Commit(t));
    if (!CheckpointWhenDue(state, e, &since_checkpoint)) break;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnCommit)
    ->Args({1, 1})
    ->Args({5, 1})
    ->Args({20, 1})
    ->Args({1, 0})
    ->Args({5, 0})
    ->Args({20, 0});

// Arg 0: records per transaction, each read then written (the wallbench
// oltp_uniform shape). The database is 16 Mwords (64 MiB, 2048 segments),
// sixteen times BM_TxnCommit's, so uniform keys miss the caches and the
// TLB: this is the row that sees what the primary copy's page size costs.
// Checkpoints run as in BM_TxnCommit.
void BM_TxnReadModifyWrite(benchmark::State& state) {
  auto env = NewMemEnv();
  EngineOptions opt = BenchOptions();
  opt.params.db.db_words = 16ull << 20;
  opt.truncate_log_at_checkpoint = true;
  auto engine = Engine::Open(opt, env.get());
  if (!engine.ok()) {
    state.SkipWithError(engine.status().ToString().c_str());
    return;
  }
  Engine& e = **engine;
  Random rng(1);
  const uint32_t k = static_cast<uint32_t>(state.range(0));
  std::string image = MakeRecordImage(e.db().record_bytes(), 0, 0);
  std::string value;
  int64_t since_checkpoint = 0;
  for (auto _ : state) {
    Transaction* t = e.Begin();
    for (uint32_t i = 0; i < k; ++i) {
      RecordId r = rng.Uniform(e.db().num_records());
      (void)e.Read(t, r, &value);
      (void)e.Write(t, r, image);
    }
    benchmark::DoNotOptimize(e.Commit(t));
    if (!CheckpointWhenDue(state, e, &since_checkpoint)) break;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TxnReadModifyWrite)->Arg(1)->Arg(5)->Arg(20);

// Lock-table striping under real multi-threaded contention (the shard
// satellite): every thread acquires and releases an exclusive lock on a
// random record, with the stripe count as the swept axis. Stripes are
// keyed by segment, so at 1 stripe all threads serialize on one mutex
// while at 16 stripes mostly-disjoint segments hit disjoint mutexes —
// the throughput ratio at Threads(4) is the striping win. Single-threaded
// rows measure the striping overhead on the uncontended fast path.
void BM_LockStripeContention(benchmark::State& state) {
  static LockManager* locks = nullptr;
  constexpr uint64_t kRecordsPerSegment = 64;
  constexpr uint64_t kSegments = 256;
  if (state.thread_index() == 0) {
    locks = new LockManager(static_cast<uint32_t>(state.range(0)),
                            kRecordsPerSegment);
  }
  Random rng(1 + static_cast<uint64_t>(state.thread_index()));
  const TxnId txn = static_cast<TxnId>(state.thread_index() + 1);
  std::vector<RecordId> held(1);
  for (auto _ : state) {
    RecordId r = rng.Uniform(kSegments) * kRecordsPerSegment +
                 rng.Uniform(kRecordsPerSegment);
    if (locks->Acquire(txn, r, LockManager::Mode::kExclusive).ok()) {
      held[0] = r;
      locks->ReleaseAll(txn, held);
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.SetLabel("stripes=" + std::to_string(state.range(0)));
    delete locks;
    locks = nullptr;
  }
}
BENCHMARK(BM_LockStripeContention)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

void BM_CheckpointFull(benchmark::State& state) {
  auto env = NewMemEnv();
  EngineOptions opt = BenchOptions();
  opt.checkpoint_mode = CheckpointMode::kFull;
  auto engine = Engine::Open(opt, env.get());
  if (!engine.ok()) {
    state.SkipWithError(engine.status().ToString().c_str());
    return;
  }
  Engine& e = **engine;
  for (auto _ : state) {
    if (!e.RunCheckpointToCompletion().ok()) {
      state.SkipWithError("checkpoint failed");
      return;
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(e.db().size_bytes()));
}
BENCHMARK(BM_CheckpointFull)->Unit(benchmark::kMillisecond);

void BM_CheckpointAlgorithms(benchmark::State& state) {
  const Algorithm algorithms[] = {
      Algorithm::kFuzzyCopy, Algorithm::kTwoColorFlush,
      Algorithm::kTwoColorCopy, Algorithm::kCouFlush, Algorithm::kCouCopy};
  Algorithm a = algorithms[state.range(0)];
  state.SetLabel(std::string(AlgorithmName(a)));
  auto env = NewMemEnv();
  EngineOptions opt = BenchOptions(a);
  opt.checkpoint_mode = CheckpointMode::kFull;
  auto engine = Engine::Open(opt, env.get());
  if (!engine.ok()) {
    state.SkipWithError(engine.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    if (!(*engine)->RunCheckpointToCompletion().ok()) {
      state.SkipWithError("checkpoint failed");
      return;
    }
  }
}
BENCHMARK(BM_CheckpointAlgorithms)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMillisecond);

void BM_RecoveryReplay(benchmark::State& state) {
  // Build a crashed engine state once per iteration batch is too slow;
  // instead rebuild per iteration on a small database.
  for (auto _ : state) {
    state.PauseTiming();
    auto env = NewMemEnv();
    EngineOptions opt = BenchOptions();
    opt.params.db.db_words = 64 * 1024;
    opt.params.db.segment_words = 1024;
    auto engine = Engine::Open(opt, env.get());
    if (!engine.ok()) {
      state.SkipWithError("open failed");
      return;
    }
    Engine& e = **engine;
    (void)e.RunCheckpointToCompletion();
    WorkloadOptions wopt;
    wopt.duration = 0.2;
    wopt.run_checkpoints = false;
    WorkloadDriver driver(&e, wopt);
    (void)driver.Run();
    e.FlushLog();
    (void)e.AdvanceTime(1.0);
    (void)e.Crash();
    state.ResumeTiming();
    benchmark::DoNotOptimize(e.Recover());
  }
}
BENCHMARK(BM_RecoveryReplay)->Unit(benchmark::kMillisecond);

void BM_WorkloadSecond(benchmark::State& state) {
  // Real seconds to simulate one virtual second of the paper's workload.
  for (auto _ : state) {
    state.PauseTiming();
    auto env = NewMemEnv();
    auto engine = Engine::Open(BenchOptions(), env.get());
    if (!engine.ok()) {
      state.SkipWithError("open failed");
      return;
    }
    WorkloadOptions wopt;
    wopt.duration = 1.0;
    WorkloadDriver driver(engine->get(), wopt);
    state.ResumeTiming();
    benchmark::DoNotOptimize(driver.Run());
  }
}
BENCHMARK(BM_WorkloadSecond)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace mmdb

// Like BENCHMARK_MAIN(), plus the harness-wide wall_seconds/jobs report
// every bench emits. google-benchmark times each case on the calling
// thread, so the measured cases always run serially (jobs=1 here by
// design — concurrent timing would contaminate the numbers; the sweep
// parallelism lives in the figure benches, see DESIGN.md §12).
int main(int argc, char** argv) {
  auto start = std::chrono::steady_clock::now();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  std::fprintf(stderr, "micro_engine: wall_seconds=%.3f jobs=1\n",
               wall.count());
  return 0;
}
