#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_env.h"
#include "core/engine.h"
#include "core/workload.h"
#include "spans.h"
#include "stats.h"
#include "txn/transaction.h"
#include "util/coding.h"
#include "util/histogram.h"
#include "util/random.h"

namespace wallbench {
namespace {

using mmdb::Algorithm;
using mmdb::CheckpointMode;
using mmdb::Engine;
using mmdb::EngineOptions;
using mmdb::RecordId;
using mmdb::Status;
using mmdb::StatusOr;

// Why each workload exists (and which layer it loads) is in README.md.
struct Spec {
  std::string_view name;
  bool posix;  // PosixEnv files under --dir; otherwise an in-memory Env
  uint64_t db_words;
  Algorithm algorithm;
  CheckpointMode mode;
  double checkpoint_interval;  // virtual seconds; 0 = back to back
  bool zipf;
  double read_fraction;
  bool restart;
  // Transactions per epoch of a load workload (see kMinEpochs).
  uint64_t epoch_txns;
};

constexpr Spec kSpecs[] = {
    {"oltp_uniform", false, 16ull << 20, Algorithm::kFuzzyCopy,
     CheckpointMode::kPartial, 30.0, false, 0.0, false, 100000},
    {"ckpt_cou_zipf", true, 1ull << 20, Algorithm::kCouCopy,
     CheckpointMode::kFull, 0.0, true, 0.5, false, 50000},
    {"restart", true, 32ull << 20, Algorithm::kFuzzyCopy,
     CheckpointMode::kPartial, 30.0, false, 0.0, true, 0},
};

constexpr double kArrivalRate = 1000.0;  // the paper's lambda, txn/s
constexpr uint32_t kRecordsPerTxn = 5;
constexpr double kZipfTheta = 0.99;
constexpr int kMaxAttempts = 100;
// Set-ups per run of the restart workload (each builds the crash image);
// setup_s is their median. A load workload sets up once per epoch.
constexpr int kSetups = 3;
// The load workloads run whole epochs of Spec::epoch_txns transactions,
// each on a freshly opened engine, until --seconds have passed, and at
// least kMinEpochs of them. Each epoch ends with a crash and a timed
// restart of its state, blocking and instant in turn. Every epoch does the
// same work whatever the engine's speed, so costs that grow with uptime or
// history weigh the same in every run; reporting medians over many short
// epochs keeps a burst of load on the host from moving a run's result.
constexpr int kMinEpochs = 6;
// The restart workload's crash image: 60,000 transactions (60 virtual
// seconds: two complete checkpoints and a 30-second log suffix after the
// last one).
constexpr uint64_t kHistoryTxns = 60000;
// Transactions served between an instant restart and its drain.
constexpr uint64_t kServeTxns = 300;
constexpr int kMinRestartIterations = 4;
// A traced run alternates blocks of this many transactions between
// tracing on and off; the off blocks are the overhead reference.
constexpr uint64_t kTraceBlock = 2000;  // divides Spec::epoch_txns
// Spans written to the trace file (all of them feed the totals).
constexpr size_t kKeepSpans = 100000;

constexpr char kFlushPolicy[] =
    "the engine never syncs WAL appends or backup segment writes; it asks "
    "for fdatasync on CHECKPOINT metadata, WAL rewrites (truncation, "
    "repair) and audit.log, and the benchmark counts those syncs "
    "(env.*.sync_ops) without issuing them";

enum Kind {
  kBegin,
  kRead,
  kWrite,
  kCommit,
  kAbort,
  kAdvance,
  kStartCkpt,
  kOpen,
  kOpenExisting,
  kOpenInstant,
  kDrain,
  kTxn,  // the benchmark's own span around Begin..Commit
  kNumKinds
};

constexpr std::string_view kKindNames[kNumKinds] = {
    "Begin",        "Read",         "Write",
    "Commit",       "Abort",        "AdvanceTime",
    "StartCheckpoint", "Open",      "OpenExisting",
    "OpenExisting.instant", "DrainRecovery", "txn"};

struct CallStats {
  // Wall per call in us: calls across which the virtual clock stood, all.
  mmdb::Histogram unstalled_us{mmdb::Histogram::kLatencyRatio};
  mmdb::Histogram all_us{mmdb::Histogram::kLatencyRatio};
  uint64_t stalled = 0;
  int64_t stalled_ns = 0;
  int64_t ns = 0;
};

// Per-layer accumulators; only traced blocks and iterations add to them.
struct Layer {
  CallStats calls[kNumKinds];
  uint64_t commits = 0;
  uint64_t attempts = 0;
  uint64_t ckpts = 0;
  uint64_t history_n = 0;
  double segments_flushed = 0.0;
  double cou_copies = 0.0;
  int64_t ckpt_wall_ns = 0;
  uint64_t wal_flushes = 0;
  int64_t engine_ns = 0;
  EnvTotals load_env{};
  EnvTotals restart_env{};
  std::vector<double> backup_reload_s, log_scan_s, replay_s, plan_s,
      drain_s, log_bytes_read, segments_loaded, threads_used,
      busy_imbalance;
};

double Div(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

uint32_t RecoveryThreads() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, n);
}

class Runner {
 public:
  Runner(const Spec& spec, const RunArgs& args)
      : spec_(spec),
        args_(args),
        spans_(kKeepSpans),
        rng_(args.seed),
        gap_mean_(1.0 / kArrivalRate) {
    for (int k = 0; k < kNumKinds; ++k) {
      kind_ids_[k] = spans_.Intern(kKindNames[k]);
    }
  }

  // Runs the workload and removes its files, also after an error.
  Status Run(RunResult* out) {
    Status st = RunImpl(out);
    CleanUp();
    return st;
  }

 private:
  Status RunImpl(RunResult* out);
  EngineOptions Options(bool instant) const;
  Status PrepareEnvs();
  Status ClearWorkDir();
  void CleanUp();

  // Engine-call wrapper: counts the attempt and, while tracing, records
  // a span, the call's wall time and whether the virtual clock moved.
  template <typename F>
  auto Call(Kind k, F&& f) -> decltype(f());
  void Check(const Status& st, const char* what);

  // Inputs of one transaction, drawn outside every timed call.
  void DrawInputs(mmdb::Random* rng);
  // Begin..Commit with retries (each on a fresh record set from `rng`);
  // returns the wall latency in ns, or -1.
  int64_t RunTxn(mmdb::Random* rng);
  // One closed-loop step: inter-arrival AdvanceTime, a due checkpoint,
  // then a transaction on fresh inputs. Adds to *engine_ns the wall spent
  // in engine calls; returns the transaction's latency (ns) or -1.
  int64_t Step(mmdb::Random* rng, int64_t* engine_ns);

  void BeginBlock(bool traced);
  void EndBlock(EnvTotals* into);
  void RecordRecovery(const mmdb::RecoveryStats& s);

  // Opens a fresh engine on an empty directory, with a blank oracle.
  Status OpenFresh(int64_t* open_ns);
  Status SetUp();
  Status LoadPhase();
  // Runs one epoch's transactions. `block` counts trace blocks across
  // epochs, so traced and untraced blocks alternate through the run.
  void RunEpoch(uint64_t* block);
  // Lets every committed transaction become durable, then fails.
  void CrashEngine();
  Status CrashAndSnapshot();
  // Timed restarts of the crash image in the work directory. Each checks
  // the oracle and closes the engine; both return their engine wall (ns).
  StatusOr<int64_t> BlockingRestart();
  // The instant restart runs its first transaction, `serve` more while
  // segments still recover on demand, then the drain.
  StatusOr<int64_t> InstantRestart(uint64_t serve);
  // One restart-workload iteration: restore the snapshot, restart
  // blocking, restore, restart instantly. Returns the engine wall (ns).
  StatusOr<int64_t> RestartIteration();
  void CheckOracle();

  void Finish(RunResult* out);

  const Spec& spec_;
  const RunArgs& args_;
  SpanRecorder spans_;
  uint32_t kind_ids_[kNumKinds];
  mmdb::Random rng_;
  const double gap_mean_;
  std::optional<mmdb::ZipfGenerator> zipf_;
  uint64_t num_records_ = 0;
  size_t record_bytes_ = 0;

  // Environments: the engine's directory and the crash-state snapshot.
  std::unique_ptr<mmdb::Env> mem_work_;
  mmdb::Env* work_base_ = nullptr;
  mmdb::Env* snap_base_ = nullptr;
  std::string work_dir_, snap_dir_;
  std::unique_ptr<BenchEnv> env_;
  std::unique_ptr<Engine> engine_;

  // Inputs of the next transaction.
  RecordId records_[kRecordsPerTxn] = {};
  std::string images_[kRecordsPerTxn];
  char read_header_[kRecordsPerTxn][16] = {};
  bool read_only_ = false;
  uint64_t marker_ = 0;
  uint64_t next_marker_ = 1;
  uint64_t txn_id_ = 0;

  // Oracle: marker of each record's last committed image (0: never
  // written, all-zero bytes). Writes made after a restart are undone
  // before the next iteration restores the snapshot.
  std::vector<uint64_t> oracle_;
  std::vector<RecordId> touched_;
  std::vector<std::pair<RecordId, uint64_t>> undo_;
  bool keep_undo_ = false;

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::string first_error_;

  // End-to-end samples. unit_tps_ holds txn/s per epoch (load) or per
  // serving window (restart); latency_us_ holds the current epoch's
  // latencies (load) or every served transaction's (restart).
  std::vector<double> setup_s_, restart_s_, first_txn_s_, unit_tps_;
  std::vector<double> latency_us_, epoch_p50_, epoch_p99_;
  uint64_t commits_ = 0;
  double peak_rss_mb_ = 0.0;

  Layer layer_;
  // Traced-block snapshots.
  EnvTotals block_env0_{};
  bool block_engine_ = false;
  uint64_t block_flush0_ = 0, block_ckpt0_ = 0, block_hist0_ = 0;
  int64_t traced_ns_ = 0, untraced_ns_ = 0;
  uint64_t traced_units_ = 0, untraced_units_ = 0;
  std::vector<double> traced_iter_s_, untraced_iter_s_;
  int64_t last_call_ns_ = 0;
};

template <typename F>
auto Runner::Call(Kind k, F&& f) -> decltype(f()) {
  ++attempted_;
  if (!spans_.enabled()) return f();
  const double v0 = engine_ != nullptr ? engine_->now() : 0.0;
  const int64_t t0 = NowNs();
  const int32_t span = spans_.Open(kind_ids_[k], t0);
  auto r = f();
  const int64_t t1 = NowNs();
  spans_.Close(span, t1);
  const bool moved = engine_ != nullptr && engine_->now() != v0;
  CallStats& c = layer_.calls[k];
  const double us = static_cast<double>(t1 - t0) / 1e3;
  c.ns += t1 - t0;
  c.all_us.Add(us);
  if (moved) {
    ++c.stalled;
    c.stalled_ns += t1 - t0;
  } else {
    c.unstalled_us.Add(us);
  }
  last_call_ns_ = t1 - t0;
  return r;
}

void Runner::Check(const Status& st, const char* what) {
  if (st.ok()) return;
  ++failed_;
  if (first_error_.empty()) {
    first_error_ = std::string(what) + ": " + st.ToString();
  }
}

EngineOptions Runner::Options(bool instant) const {
  EngineOptions opt;
  opt.params.db.db_words = spec_.db_words;
  opt.params.txn.arrival_rate = kArrivalRate;
  opt.params.txn.updates_per_txn = kRecordsPerTxn;
  opt.algorithm = spec_.algorithm;
  opt.checkpoint_mode = spec_.mode;
  opt.checkpoint_interval = spec_.checkpoint_interval;
  // Bounds the log (and, in memory, the process) on long runs.
  opt.truncate_log_at_checkpoint = true;
  opt.recovery_threads = RecoveryThreads();
  opt.shards = 1;
  opt.instant_recovery = instant;
  opt.dir = work_dir_;
  return opt;
}

Status Runner::PrepareEnvs() {
  if (args_.dir.empty()) return mmdb::InvalidArgumentError("--dir is required");
  std::error_code ec;
  std::filesystem::remove_all(args_.dir, ec);
  std::filesystem::create_directories(args_.dir, ec);
  if (ec) return mmdb::IoError("cannot create " + args_.dir);
  // Snapshots live on disk, so they never count toward peak_rss_mb.
  snap_base_ = mmdb::Env::Posix();
  snap_dir_ = args_.dir + "/snap";
  if (spec_.posix) {
    work_base_ = mmdb::Env::Posix();
    work_dir_ = args_.dir + "/db";
  } else {
    mem_work_ = mmdb::NewMemEnv();
    work_base_ = mem_work_.get();
    work_dir_ = "db";
  }
  env_ = std::make_unique<BenchEnv>(work_base_, &spans_);
  return Status::OK();
}

Status Runner::ClearWorkDir() {
  MMDB_RETURN_IF_ERROR(work_base_->CreateDirIfMissing(work_dir_));
  std::vector<std::string> names;
  MMDB_RETURN_IF_ERROR(work_base_->ListDir(work_dir_, &names));
  for (const std::string& n : names) {
    MMDB_RETURN_IF_ERROR(work_base_->DeleteFile(work_dir_ + "/" + n));
  }
  return Status::OK();
}

void Runner::CleanUp() {
  engine_.reset();
  if (!args_.dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(args_.dir, ec);
  }
}

void Runner::DrawInputs(mmdb::Random* rng) {
  read_only_ = spec_.read_fraction > 0.0 && rng->Bernoulli(spec_.read_fraction);
  for (uint32_t i = 0; i < kRecordsPerTxn; ++i) {
    for (;;) {
      const RecordId r =
          zipf_ ? zipf_->Next(rng) : rng->Uniform(num_records_);
      if (std::find(records_, records_ + i, r) == records_ + i) {
        records_[i] = r;
        break;
      }
    }
  }
  marker_ = next_marker_++;
  if (!read_only_) {
    for (uint32_t i = 0; i < kRecordsPerTxn; ++i) {
      images_[i] = mmdb::MakeRecordImage(record_bytes_, records_[i], marker_);
    }
  }
}

int64_t Runner::RunTxn(mmdb::Random* rng) {
  spans_.set_txn(++txn_id_);
  const int64_t t0 = NowNs();
  bool committed = false;
  {
    ScopedSpan txn_span(&spans_, kind_ids_[kTxn]);
    std::string value;
    for (int attempt = 1; attempt <= kMaxAttempts && !committed; ++attempt) {
      if (spans_.enabled()) ++layer_.attempts;
      if (attempt > 1) DrawInputs(rng);  // a fresh record set, as a rerun
      mmdb::Transaction* txn = Call(kBegin, [&] { return engine_->Begin(); });
      Status st;
      for (uint32_t i = 0; i < kRecordsPerTxn && st.ok(); ++i) {
        st = Call(kRead,
                  [&] { return engine_->Read(txn, records_[i], &value); });
        if (!st.ok()) break;
        std::memset(read_header_[i], 0, 16);
        std::memcpy(read_header_[i], value.data(),
                    std::min<size_t>(16, value.size()));
        if (!read_only_) {
          st = Call(kWrite, [&] {
            return engine_->Write(txn, records_[i], images_[i]);
          });
        }
      }
      if (st.ok()) {
        StatusOr<mmdb::Lsn> lsn =
            Call(kCommit, [&] { return engine_->Commit(txn); });
        Check(lsn.status(), "Commit");
        if (!lsn.ok()) return -1;
        committed = true;
      } else if (st.IsAborted()) {
        const bool lock =
            txn->abort_cause == mmdb::TxnAbortCause::kLockConflict;
        Call(kAbort, [&] {
          engine_->Abort(txn, lock ? mmdb::AbortReason::kLockConflict
                                   : mmdb::AbortReason::kColorViolation);
          return 0;
        });
      } else {
        Check(st, "Read/Write");
        engine_->Abort(txn);
        return -1;
      }
    }
  }
  const int64_t latency = NowNs() - t0;
  if (!committed) {
    Check(mmdb::AbortedError("no attempt committed"), "transaction");
    return -1;
  }
  // Reads must return each record's last committed image; the first 16
  // bytes of every image carry (record, marker).
  for (uint32_t i = 0; i < kRecordsPerTxn; ++i) {
    const RecordId r = records_[i];
    const uint64_t want_marker = oracle_[r];
    const uint64_t got_record = mmdb::DecodeFixed64(read_header_[i]);
    const uint64_t got_marker = mmdb::DecodeFixed64(read_header_[i] + 8);
    ++attempted_;
    if (got_marker != want_marker || (want_marker != 0 && got_record != r)) {
      Check(mmdb::CorruptionError("read returned a stale or foreign image"),
            "oracle read");
    }
    if (!read_only_) {
      if (keep_undo_) undo_.emplace_back(r, oracle_[r]);
      if (oracle_[r] == 0) touched_.push_back(r);
      oracle_[r] = marker_;
    }
  }
  return latency;
}

int64_t Runner::Step(mmdb::Random* rng, int64_t* engine_ns) {
  const double gap = rng->Exponential(gap_mean_);
  DrawInputs(rng);
  spans_.set_txn(txn_id_ + 1);
  int64_t t0 = NowNs();
  const bool ckpt_before = engine_->CheckpointInProgress();
  Check(Call(kAdvance, [&] { return engine_->AdvanceTime(gap); }),
        "AdvanceTime");
  if (spans_.enabled() && (ckpt_before || engine_->CheckpointInProgress())) {
    layer_.ckpt_wall_ns += last_call_ns_;
  }
  if (!engine_->CheckpointInProgress() &&
      engine_->now() >= engine_->scheduler().NextBeginTime()) {
    Check(Call(kStartCkpt, [&] { return engine_->StartCheckpoint(); }),
          "StartCheckpoint");
    if (spans_.enabled()) layer_.ckpt_wall_ns += last_call_ns_;
  }
  *engine_ns += NowNs() - t0;
  const int64_t latency = RunTxn(rng);
  if (latency >= 0) *engine_ns += latency;
  return latency;
}

void Runner::BeginBlock(bool traced) {
  spans_.set_enabled(traced);
  if (!traced) return;
  block_env0_ = env_->Snapshot();
  block_engine_ = engine_ != nullptr;
  if (block_engine_) {
    block_flush0_ = engine_->log()->FlushCount();
    block_ckpt0_ = engine_->scheduler().completed();
    block_hist0_ = engine_->checkpointer().history_dropped() +
                   engine_->checkpointer().history().size();
  }
}

void Runner::EndBlock(EnvTotals* into) {
  if (!spans_.enabled()) return;
  *into += env_->Snapshot() - block_env0_;
  if (block_engine_ && engine_ != nullptr) {
    layer_.wal_flushes += engine_->log()->FlushCount() - block_flush0_;
    layer_.ckpts += engine_->scheduler().completed() - block_ckpt0_;
    const auto& history = engine_->checkpointer().history();
    const uint64_t dropped = engine_->checkpointer().history_dropped();
    for (uint64_t abs = std::max(block_hist0_, dropped);
         abs < dropped + history.size(); ++abs) {
      const mmdb::CheckpointStats& c = history[abs - dropped];
      ++layer_.history_n;
      layer_.segments_flushed += static_cast<double>(c.segments_flushed);
      layer_.cou_copies += static_cast<double>(c.cou_copies);
    }
  }
  spans_.Fold();
  spans_.set_enabled(false);
}

void Runner::RecordRecovery(const mmdb::RecoveryStats& s) {
  layer_.backup_reload_s.push_back(s.backup_read_wall_seconds);
  layer_.log_scan_s.push_back(s.log_scan_wall_seconds);
  layer_.replay_s.push_back(s.replay_wall_seconds);
  layer_.log_bytes_read.push_back(static_cast<double>(s.log_bytes_read));
  layer_.segments_loaded.push_back(static_cast<double>(s.segments_loaded));
  layer_.threads_used.push_back(s.threads_used);
  double max = 0.0, sum = 0.0;
  for (double b : s.thread_busy_seconds) {
    max = std::max(max, b);
    sum += b;
  }
  const double n = static_cast<double>(s.thread_busy_seconds.size());
  layer_.busy_imbalance.push_back(Div(max, Div(sum, n)));
}

Status Runner::OpenFresh(int64_t* open_ns) {
  engine_.reset();
  MMDB_RETURN_IF_ERROR(ClearWorkDir());
  std::fill(oracle_.begin(), oracle_.end(), 0);
  touched_.clear();
  const EngineOptions opt = Options(false);
  const int64_t t0 = NowNs();
  StatusOr<std::unique_ptr<Engine>> e =
      Call(kOpen, [&] { return Engine::Open(opt, env_.get()); });
  *open_ns = NowNs() - t0;
  if (!e.ok()) return e.status();
  engine_ = std::move(e).value();
  return Status::OK();
}

Status Runner::SetUp() {
  for (int i = 0; i < kSetups; ++i) {
    int64_t ns = 0;
    MMDB_RETURN_IF_ERROR(OpenFresh(&ns));
    // The crash image: the same inputs on every set-up.
    const int64_t t0 = NowNs();
    mmdb::Random history_rng(args_.seed ^ 0x5e7a9u);
    int64_t ignored = 0;
    for (uint64_t t = 0; t < kHistoryTxns; ++t) Step(&history_rng, &ignored);
    MMDB_RETURN_IF_ERROR(CrashAndSnapshot());
    setup_s_.push_back(static_cast<double>(ns + NowNs() - t0) / 1e9);
  }
  return Status::OK();
}

void Runner::CrashEngine() {
  attempted_ += 3;
  Check(engine_->FlushLog(), "FlushLog");
  Check(engine_->AdvanceTime(1.0), "AdvanceTime");
  Check(engine_->Crash(), "Crash");
  engine_.reset();
}

Status Runner::CrashAndSnapshot() {
  CrashEngine();
  return MirrorDir(work_base_, work_dir_, snap_base_, snap_dir_);
}

void Runner::RunEpoch(uint64_t* block) {
  int64_t epoch_ns = 0;
  uint64_t epoch_commits = 0;
  bool traced = false;
  int64_t block_ns = 0;
  uint64_t block_commits = 0;
  for (uint64_t n = 0; n < spec_.epoch_txns; ++n) {
    if (args_.trace && n % kTraceBlock == 0) {
      traced = (*block)++ % 2 == 1;
      BeginBlock(traced);
    }
    int64_t ns = 0;
    const int64_t latency = Step(&rng_, &ns);
    epoch_ns += ns;
    block_ns += ns;
    if (latency >= 0) {
      latency_us_.push_back(static_cast<double>(latency) / 1e3);
      ++epoch_commits;
      ++block_commits;
    }
    if (args_.trace && (n + 1) % kTraceBlock == 0) {
      if (traced) {
        traced_ns_ += block_ns;
        traced_units_ += block_commits;
        layer_.engine_ns += block_ns;
        layer_.commits += block_commits;
      } else {
        untraced_ns_ += block_ns;
        untraced_units_ += block_commits;
      }
      EndBlock(&layer_.load_env);
      block_ns = 0;
      block_commits = 0;
    }
  }
  commits_ += epoch_commits;
  unit_tps_.push_back(Div(static_cast<double>(epoch_commits),
                          static_cast<double>(epoch_ns) / 1e9));
}

Status Runner::LoadPhase() {
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args_.seconds * 1e9);
  uint64_t block = 0;
  for (int epoch = 0; epoch < kMinEpochs || NowNs() < deadline; ++epoch) {
    int64_t open_ns = 0;
    MMDB_RETURN_IF_ERROR(OpenFresh(&open_ns));
    setup_s_.push_back(static_cast<double>(open_ns) / 1e9);
    latency_us_.clear();
    RunEpoch(&block);
    epoch_p50_.push_back(Percentile(latency_us_, 50));
    epoch_p99_.push_back(Percentile(latency_us_, 99));
    CrashEngine();
    BeginBlock(args_.trace);
    if (epoch % 2 == 0) {
      MMDB_RETURN_IF_ERROR(BlockingRestart().status());
    } else {
      MMDB_RETURN_IF_ERROR(InstantRestart(0).status());
    }
    EndBlock(&layer_.restart_env);
    // Two epochs and a restart of each kind: a fixed amount of work, which
    // later epochs repeat on fresh engines.
    if (epoch == 1) peak_rss_mb_ = PeakRssMiB();
  }
  return Status::OK();
}

StatusOr<int64_t> Runner::BlockingRestart() {
  const EngineOptions opt = Options(false);
  const int64_t t0 = NowNs();
  StatusOr<std::unique_ptr<Engine>> e = Call(
      kOpenExisting, [&] { return Engine::OpenExisting(opt, env_.get()); });
  const int64_t open_ns = NowNs() - t0;
  if (!e.ok()) return e.status();
  engine_ = std::move(e).value();
  restart_s_.push_back(static_cast<double>(open_ns) / 1e9);
  if (spans_.enabled()) RecordRecovery(engine_->last_recovery());
  CheckOracle();
  engine_.reset();
  return open_ns;
}

StatusOr<int64_t> Runner::InstantRestart(uint64_t serve) {
  const EngineOptions opt = Options(true);
  // The same inputs in every restart, so every restart does the same work.
  mmdb::Random rng(args_.seed ^ 0x1257a47u);
  // Writes made after the restart are undone afterwards: the restart
  // workload restores the crash image before its next restart.
  keep_undo_ = true;
  const size_t touched0 = touched_.size();
  DrawInputs(&rng);
  const int64_t t0 = NowNs();
  StatusOr<std::unique_ptr<Engine>> e = Call(
      kOpenInstant, [&] { return Engine::OpenExisting(opt, env_.get()); });
  const int64_t plan_ns = NowNs() - t0;
  if (!e.ok()) return e.status();
  engine_ = std::move(e).value();
  if (spans_.enabled()) {
    layer_.plan_s.push_back(static_cast<double>(plan_ns) / 1e9);
  }
  const int64_t first = RunTxn(&rng);
  const int64_t first_end = NowNs();
  int64_t wall_ns = first_end - t0;
  first_txn_s_.push_back(static_cast<double>(wall_ns) / 1e9);
  // Wall from the plan's return until no segment is pending: on-demand
  // and background loads inside the served transactions, then the drain.
  int64_t recovered_at = engine_->recovery_pending() ? 0 : first_end;
  if (serve > 0) {
    const uint64_t flushes0 = engine_->log()->FlushCount();
    int64_t serve_ns = 0;
    uint64_t serve_commits = 0;
    if (first >= 0) {
      latency_us_.push_back(static_cast<double>(first) / 1e3);
      serve_ns += first;
      ++serve_commits;
    }
    for (uint64_t i = 0; i < serve; ++i) {
      int64_t ns = 0;
      const int64_t latency = Step(&rng, &ns);
      serve_ns += ns;
      wall_ns += ns;
      if (recovered_at == 0 && !engine_->recovery_pending()) {
        recovered_at = NowNs();
      }
      if (latency >= 0) {
        latency_us_.push_back(static_cast<double>(latency) / 1e3);
        ++serve_commits;
      }
    }
    commits_ += serve_commits;
    unit_tps_.push_back(Div(static_cast<double>(serve_commits),
                            static_cast<double>(serve_ns) / 1e9));
    if (spans_.enabled()) {
      layer_.engine_ns += serve_ns;
      layer_.commits += serve_commits;
      layer_.wal_flushes += engine_->log()->FlushCount() - flushes0;
    }
  }
  const int64_t d0 = NowNs();
  Check(Call(kDrain, [&] { return engine_->DrainRecovery(); }),
        "DrainRecovery");
  const int64_t d1 = NowNs();
  wall_ns += d1 - d0;
  if (recovered_at == 0) recovered_at = d1;
  if (spans_.enabled()) {
    layer_.drain_s.push_back(static_cast<double>(recovered_at - t0 - plan_ns) /
                             1e9);
  }
  CheckOracle();
  engine_.reset();
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    oracle_[it->first] = it->second;
  }
  undo_.clear();
  touched_.resize(touched0);
  keep_undo_ = false;
  return wall_ns;
}

StatusOr<int64_t> Runner::RestartIteration() {
  MMDB_RETURN_IF_ERROR(MirrorDir(snap_base_, snap_dir_, work_base_, work_dir_));
  MMDB_ASSIGN_OR_RETURN(const int64_t blocking_ns, BlockingRestart());
  MMDB_RETURN_IF_ERROR(MirrorDir(snap_base_, snap_dir_, work_base_, work_dir_));
  MMDB_ASSIGN_OR_RETURN(const int64_t instant_ns, InstantRestart(kServeTxns));
  return blocking_ns + instant_ns;
}

void Runner::CheckOracle() {
  std::string want;
  for (RecordId r : touched_) {
    ++attempted_;
    want = mmdb::MakeRecordImage(record_bytes_, r, oracle_[r]);
    if (engine_->ReadRecordRaw(r) != want) {
      Check(mmdb::CorruptionError("record " + std::to_string(r) +
                                  " does not hold its last committed image"),
            "oracle");
    }
  }
}

Status Runner::RunImpl(RunResult* out) {
  MMDB_RETURN_IF_ERROR(PrepareEnvs());
  const EngineOptions opt = Options(false);
  MMDB_RETURN_IF_ERROR(opt.Validate());
  num_records_ = opt.params.db.num_records();
  record_bytes_ = opt.params.db.record_bytes();
  oracle_.assign(num_records_, 0);
  if (spec_.zipf) zipf_.emplace(num_records_, kZipfTheta);

  if (!spec_.restart) {
    MMDB_RETURN_IF_ERROR(LoadPhase());
  } else {
    // Set-up is untraced: its cost is setup_s, not a layer's.
    MMDB_RETURN_IF_ERROR(SetUp());
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(args_.seconds * 1e9);
    const size_t min_samples = MinSamplesFor(99);
    for (int i = 0; NowNs() < deadline || i < kMinRestartIterations ||
                    latency_us_.size() < min_samples;
         ++i) {
      const bool traced = args_.trace && i % 2 == 1;
      BeginBlock(traced);
      MMDB_ASSIGN_OR_RETURN(const int64_t iter_ns, RestartIteration());
      EndBlock(&layer_.load_env);
      (traced ? traced_iter_s_ : untraced_iter_s_)
          .push_back(static_cast<double>(iter_ns) / 1e9);
      if (i == 0) peak_rss_mb_ = PeakRssMiB();
    }
  }
  Finish(out);
  return Status::OK();
}

void Runner::Finish(RunResult* out) {
  MetricSet& m = out->metrics;
  char line[512];
  std::string& rep = out->report;

  // --- end to end -------------------------------------------------------
  // Units (epochs, serving windows, restarts, set-ups) are combined by
  // their interquartile mean: restart times in particular fall into two
  // modes about 20 ms apart within one run, and a median of a dozen such
  // samples jumps between them from run to run.
  m.Set("setup_s", InterquartileMean(setup_s_));
  m.Set("txn_per_s", InterquartileMean(unit_tps_));
  if (spec_.restart) {
    std::vector<double> lat = latency_us_;
    m.Set("txn_p50_us", Percentile(lat, 50));
    m.Set("txn_p99_us", Percentile(lat, 99));
  } else {
    m.Set("txn_p50_us", InterquartileMean(epoch_p50_));
    m.Set("txn_p99_us", InterquartileMean(epoch_p99_));
  }
  m.Set("restart_s", InterquartileMean(restart_s_));
  m.Set("first_txn_s", InterquartileMean(first_txn_s_));
  m.Set("peak_rss_mb", peak_rss_mb_);

  // --- per layer (traced blocks and iterations only) --------------------
  const Layer& L = layer_;
  EnvTotals all = L.load_env;
  all += L.restart_env;
  auto env = [](const EnvTotals& t, FileClass c, FileOp o) -> const OpTotals& {
    return t[static_cast<size_t>(c)][static_cast<size_t>(o)];
  };
  auto secs = [](int64_t ns) { return static_cast<double>(ns) / 1e9; };
  auto p50 = [&](Kind k) { return L.calls[k].unstalled_us.Median(); };
  m.Set("txn.commit_us", p50(kCommit));
  m.Set("txn.write_us", p50(kWrite));
  m.Set("txn.read_us", p50(kRead));
  uint64_t stalled = 0;
  int64_t stalled_ns = 0;
  for (Kind k : {kBegin, kRead, kWrite, kCommit}) {
    stalled += L.calls[k].stalled;
    stalled_ns += L.calls[k].stalled_ns;
  }
  m.Set("txn.stalled_calls", static_cast<double>(stalled));
  m.Set("txn.stall_us", static_cast<double>(stalled_ns) / 1e3);
  m.Set("txn.attempts_per_commit",
        Div(static_cast<double>(L.attempts), static_cast<double>(L.commits)));
  const OpTotals& wal_w = env(L.load_env, FileClass::kWal, FileOp::kWrite);
  m.Set("wal.bytes_per_commit", Div(static_cast<double>(wal_w.bytes),
                                    static_cast<double>(L.commits)));
  m.Set("wal.flushes", static_cast<double>(L.wal_flushes));
  m.Set("wal.write_s", secs(wal_w.ns));
  m.Set("core.advance_s", secs(L.calls[kAdvance].ns));
  m.Set("core.advance_share", Div(static_cast<double>(L.calls[kAdvance].ns),
                                  static_cast<double>(L.engine_ns)));
  m.Set("core.advance_self_s",
        secs(spans_.totals(kind_ids_[kAdvance]).self_ns));
  const double ckpts = static_cast<double>(L.ckpts);
  m.Set("checkpoint.ms_per_ckpt",
        Div(static_cast<double>(L.ckpt_wall_ns) / 1e6, ckpts));
  m.Set("checkpoint.start_us", L.calls[kStartCkpt].all_us.Median());
  const double hist_n = static_cast<double>(L.history_n);
  m.Set("checkpoint.segments_flushed_per_ckpt",
        Div(L.segments_flushed, hist_n));
  m.Set("checkpoint.cou_copies_per_ckpt", Div(L.cou_copies, hist_n));
  const OpTotals& bk_w = env(L.load_env, FileClass::kBackup, FileOp::kWrite);
  const OpTotals& bk_r = env(all, FileClass::kBackup, FileOp::kRead);
  m.Set("backup.write_bytes_per_ckpt",
        Div(static_cast<double>(bk_w.bytes), ckpts));
  m.Set("backup.write_s", secs(bk_w.ns));
  m.Set("backup.read_s", secs(bk_r.ns));
  m.Set("backup.read_mb_per_s",
        Div(static_cast<double>(bk_r.bytes) / (1 << 20), secs(bk_r.ns)));
  static constexpr FileClass kClasses[] = {FileClass::kWal, FileClass::kBackup,
                                           FileClass::kMeta, FileClass::kAudit};
  static constexpr std::pair<FileOp, std::string_view> kOps[] = {
      {FileOp::kRead, "read"},
      {FileOp::kWrite, "write"},
      {FileOp::kSync, "sync"}};
  for (FileClass c : kClasses) {
    for (const auto& [op, op_name] : kOps) {
      const std::string base =
          "env." + std::string(FileClassName(c)) + "." + std::string(op_name);
      const OpTotals& t = env(all, c, op);
      m.Set(base + "_ops", static_cast<double>(t.ops));
      // A sync moves no bytes and is not issued (see BenchEnv).
      if (op != FileOp::kSync) {
        m.Set(base + "_bytes", static_cast<double>(t.bytes));
        m.Set(base + "_s", secs(t.ns));
      }
    }
  }
  const OpTotals& audit_w = env(L.load_env, FileClass::kAudit, FileOp::kWrite);
  m.Set("obs.audit_bytes", static_cast<double>(audit_w.bytes));
  m.Set("obs.audit_write_s", secs(audit_w.ns));
  m.Set("recovery.backup_reload_s", Median(L.backup_reload_s));
  m.Set("recovery.log_scan_s", Median(L.log_scan_s));
  m.Set("recovery.replay_s", Median(L.replay_s));
  m.Set("recovery.plan_s", Median(L.plan_s));
  m.Set("recovery.drain_s", Median(L.drain_s));
  m.Set("recovery.log_bytes_read", Median(L.log_bytes_read));
  m.Set("recovery.segments_loaded", Median(L.segments_loaded));
  m.Set("parallel.threads_used", Median(L.threads_used));
  m.Set("parallel.busy_imbalance", Median(L.busy_imbalance));
  // Wall per unit of work with tracing on over tracing off, minus one:
  // per committed transaction under load, per iteration on restart.
  const double overhead =
      spec_.restart
          ? Div(Median(traced_iter_s_), Median(untraced_iter_s_)) - 1.0
          : Div(Div(static_cast<double>(traced_ns_),
                    static_cast<double>(traced_units_)),
                Div(static_cast<double>(untraced_ns_),
                    static_cast<double>(untraced_units_))) -
                1.0;
  m.Set("trace.overhead_share", args_.trace ? overhead : 0.0);
  m.Set("trace.spans", static_cast<double>(spans_.spans_recorded()));

  // --- report -----------------------------------------------------------
  const EngineOptions opt = Options(false);
  std::snprintf(
      line, sizeof(line),
      "settings: workload=%s env=%s db=%.0fMiB segments=%llu record=%lluB "
      "algorithm=%s mode=%s checkpoint_interval=%gs lambda=%g "
      "records_per_txn=%u read_fraction=%g keys=%s shards=1 "
      "recovery_threads=%u nproc=%u build=%s log_truncation=on seed=%llu\n",
      std::string(spec_.name).c_str(), spec_.posix ? "posix" : "mem",
      static_cast<double>(opt.params.db.db_words) * 4 / (1 << 20),
      static_cast<unsigned long long>(opt.params.db.num_segments()),
      static_cast<unsigned long long>(opt.params.db.record_bytes()),
      std::string(mmdb::AlgorithmName(spec_.algorithm)).c_str(),
      spec_.mode == CheckpointMode::kFull ? "full" : "partial",
      spec_.checkpoint_interval, kArrivalRate, kRecordsPerTxn,
      spec_.read_fraction, spec_.zipf ? "zipf0.99" : "uniform",
      mmdb::RecoveryManager::ResolveThreads(opt.recovery_threads),
      std::thread::hardware_concurrency(), WALLBENCH_BUILD_TYPE,
      static_cast<unsigned long long>(args_.seed));
  rep += line;
  rep += std::string("flush_policy: ") + kFlushPolicy + "\n";
  std::snprintf(line, sizeof(line),
                "samples: txn_latency=%zu per %s (beyond p99: %zu) "
                "%s=%zu setups=%zu restarts=%zu instant_restarts=%zu "
                "commits=%llu\n",
                latency_us_.size(), spec_.restart ? "run" : "epoch",
                SamplesBeyond(latency_us_.size(), 99),
                spec_.restart ? "serving_windows" : "epochs",
                unit_tps_.size(), setup_s_.size(), restart_s_.size(),
                first_txn_s_.size(), static_cast<unsigned long long>(commits_));
  rep += line;
  std::snprintf(line, sizeof(line),
                "fail_ratio: %.17g (failed %llu of %llu attempted)%s%s\n",
                Div(static_cast<double>(failed_),
                    static_cast<double>(attempted_)),
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_),
                first_error_.empty() ? "" : "; first: ", first_error_.c_str());
  rep += line;
  if (args_.trace) {
    rep += "self time by span (traced blocks): name count total_s self_s\n";
    const auto& totals = spans_.totals();
    for (uint32_t i = 0; i < totals.size(); ++i) {
      if (totals[i].count == 0) continue;
      std::snprintf(line, sizeof(line), "  %-24s %10llu %12.6f %12.6f\n",
                    spans_.name(i).c_str(),
                    static_cast<unsigned long long>(totals[i].count),
                    secs(totals[i].total_ns), secs(totals[i].self_ns));
      rep += line;
    }
    if (!args_.trace_out.empty()) {
      Status st = spans_.WriteChromeTrace(args_.trace_out);
      rep += st.ok() ? "spans written to " + args_.trace_out + "\n"
                     : "span file not written: " + st.ToString() + "\n";
    }
  }
  out->attempted = attempted_;
  out->failed = failed_;
}

}  // namespace

Status RunWorkload(const RunArgs& args, RunResult* result) {
  for (const Spec& spec : kSpecs) {
    if (spec.name == args.workload) {
      Runner runner(spec, args);
      return runner.Run(result);
    }
  }
  return mmdb::InvalidArgumentError("unknown workload: " + args.workload);
}

}  // namespace wallbench
