#ifndef MMDB_RECOVERY_RECOVERY_MANAGER_H_
#define MMDB_RECOVERY_RECOVERY_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "backup/backup_store.h"
#include "env/env.h"
#include "obs/audit.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "sim/cost_model.h"
#include "sim/cpu_meter.h"
#include "storage/database.h"
#include "storage/segment_table.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/types.h"
#include "wal/log_reader.h"

namespace mmdb {

// What system-failure recovery did and how long each phase took on the
// modeled hardware. `total_seconds` is the paper's recovery-time metric:
// read the backup database into memory plus read (and replay) the needed
// portion of the log (Section 4).
//
// Two clocks coexist here. The modeled fields (backup_read_seconds,
// log_read_seconds, replay_cpu_seconds, total_seconds) are virtual-clock
// quantities computed in closed form from the cost model and are
// BIT-IDENTICAL for any recovery_threads setting and for either schedule
// (blocking or instant) — parallelizing or reordering the real work does
// not change what the simulated 1989 hardware would have done. The wall
// fields (`*_wall_seconds`, `thread_busy_seconds`) measure the real CPU
// doing that work; they are machine-dependent and excluded from every
// determinism comparison (IsWallClockField in obs/bench_diff.h).
struct RecoveryStats {
  CheckpointId checkpoint_id = 0;  // checkpoint restored (0 = cold start)
  uint32_t copy = 0;

  double backup_read_seconds = 0.0;
  double log_read_seconds = 0.0;
  double replay_cpu_seconds = 0.0;
  double total_seconds = 0.0;

  // Successful segment reads applied to the database, across BOTH load
  // attempts when recovery fell back (first-attempt survivors plus every
  // segment re-read from the older copy) — a sum, so it is identical for
  // any thread count.
  uint64_t segments_loaded = 0;
  // Segments re-read from the older copy after the newest copy failed
  // (num_segments when delta records forced a full reload; the failed-set
  // size otherwise). 0 when no fallback occurred.
  uint64_t segments_retried = 0;
  uint64_t log_bytes_read = 0;
  uint64_t records_scanned = 0;
  uint64_t updates_applied = 0;
  uint64_t txns_redone = 0;

  // The newest backup copy had an unreadable or CRC-bad segment and the
  // previous checkpoint's copy was restored instead (replaying the longer
  // log suffix).
  bool fell_back_to_older_copy = false;

  // --- real wall clock (machine-dependent; see the struct comment) ------
  // Each field sums its phase over every batch of the restart (one batch
  // under the blocking schedule, one per touch or background sweep under
  // the instant one).
  uint32_t threads_used = 1;           // pool width; 1 = inline, no pool
  double backup_read_wall_seconds = 0.0;  // phase 1: backup reads + CRC
  // Planning the log suffix: the classification scan plus the plan's
  // validation decode of every bucketed frame (re-run over the longer
  // suffix after an older-copy fallback).
  double log_scan_wall_seconds = 0.0;
  double replay_wall_seconds = 0.0;  // phase 2: bucketed REDO apply
  // Per-thread busy time summed across every chunked phase (the scan,
  // backup reads, replay; not the serial validation walk): slot i is pool
  // worker i; chunks run inline (no pool, or a batch a transaction waits
  // on) count in slot 0.
  std::vector<double> thread_busy_seconds;
};

// Outputs the engine needs to resume normal processing after recovery.
struct RecoveryResult {
  RecoveryStats stats;
  Lsn last_lsn = kInvalidLsn;      // highest LSN found in the log
  uint64_t log_valid_bytes = 0;    // well-formed log prefix length
  // Per-stream logical end offsets of the merged prefix (one entry per
  // log stream; see LogReader::OpenStreams) — what LogManager needs to
  // reopen the stream files after recovery.
  std::vector<uint64_t> stream_valid_bytes;
  // Id of the newest end-checkpoint marker in the log (0 if none). Equals
  // stats.checkpoint_id except when recovery fell back to the older copy;
  // the engine must then skip past this id so a stale end marker is never
  // paired with a half-overwritten backup copy.
  CheckpointId newest_end_id = 0;
  // Per-segment provenance of the restored image (DESIGN.md §18): which
  // checkpoint/copy supplied each segment's bytes, whether it was re-read
  // from the older copy, and the frames/LSNs/streams replayed into it.
  // Sized num_segments; empty only when recovery itself failed.
  std::vector<SegmentLineage> lineage;
};

// Everything a restart needs before a single segment byte is reloaded
// (DESIGN.md §19): the merged immutable log snapshot, the committed set,
// the per-segment REDO frame buckets, the restore decision, and a
// RecoveryResult whose modeled stats and lineage are already final for
// the clean path (the phase costs are closed-form and need no segment
// bytes). Produced by RecoveryManager::PlanInstant and consumed by
// InstantRecovery, which materializes segments against it under either
// schedule; an older-copy fallback re-plans it over the longer suffix.
struct InstantRecoveryPlan {
  RecoveryResult result;

  // Placeholder-initialized (an empty log) until PlanInstant moves the
  // merged stream view in; LogReader has no default constructor.
  LogReader reader{std::string()};
  bool have_checkpoint = false;
  CheckpointId restore_id = 0;
  uint32_t restore_copy = 0;
  uint64_t replay_from_offset = 0;
  // The crash instant recovery started at: the modeled phases are
  // anchored here (float subtraction is not translation-invariant) and
  // every recovery outcome event is stamped with it.
  double crash_time = 0.0;
  // Transactions with a commit record in the replay suffix.
  std::unordered_set<TxnId> committed;
  // Per-segment frame indices of the suffix's UPDATE/DELTA records in log
  // order, plus one overflow bucket (index num_segments) that validation
  // has proven holds only uncommitted frames.
  std::vector<std::vector<std::size_t>> buckets;
  // Non-empty bucket count (the replay fan-out width), recorded in the
  // kRecoveryFanout trace event at finalization.
  uint64_t replay_buckets = 0;
  // Replay instructions charged to the CPU meter so far (a re-plan
  // charges only the difference).
  double replay_instructions = 0.0;
};

// Plans the rebuild of the primary (memory-resident) database after a
// system failure (Section 3.3): picks the last complete backup copy named
// by the checkpoint metadata and the log, then classifies and validates
// the log suffix from that checkpoint's begin marker into per-segment
// REDO buckets of committed transactions' updates. Works identically for
// every checkpoint algorithm — fuzzy backups are repaired by the same
// replay that rolls consistent backups forward.
//
// Cold start: if no checkpoint ever completed, the database is rebuilt
// from an empty image by replaying the entire log.
//
// The plan is the whole of recovery's decision-making; InstantRecovery
// then moves the bytes. A blocking restart materializes every segment in
// one batch; an instant restart materializes segments as they are
// touched or their background reload comes due. Both fan their work out
// over the same optional ThreadPool in chunks (DESIGN.md §19): the
// classification scan decodes disjoint frame ranges, validation and
// replay are partitioned by segment (updates to one segment stay in log
// order), and backup reads cover independent byte ranges. Without a pool
// the SAME chunk decomposition runs inline, which is why every modeled
// stat is bit-identical across thread counts.
class RecoveryManager {
 public:
  // `metrics`, `tracer` and `audit` are optional sinks (any may be null):
  // the registry counters and phase trace events of a finished recovery,
  // and the provenance journal (DESIGN.md §18). `pool` is an optional
  // worker pool — null runs every phase inline. All are borrowed, not
  // owned; the pool may serve many recoveries.
  RecoveryManager(Env* env, const SystemParams& params, CpuMeter* meter,
                  MetricsRegistry* metrics = nullptr, Tracer* tracer = nullptr,
                  ThreadPool* pool = nullptr, AuditJournal* audit = nullptr);

  // Runs phase 1 (stream merge, metadata/log reconciliation) plus the
  // classification scan and an eager validation pass over every bucketed
  // frame, but reads NO segment bytes and applies NO update. `backup`
  // must be Open()ed; `db` is cleared and `segments` reset to the
  // conservative post-recovery control state (all dirty). `now` is the
  // crash instant. `log_paths` is the per-shard stream file list (one
  // path = the classic single log); the streams are LSN-merged into one
  // logical log, so every later step is stream-count agnostic. The
  // recovery CPU is charged to the meter here. Journals recovery.streams
  // and recovery.plan; the caller journals the outcome.
  StatusOr<InstantRecoveryPlan> PlanInstant(
      BackupStore* backup, const std::vector<std::string>& log_paths,
      Database* db, SegmentTable* segments, double now);

  // The worker count recovery should use: the MMDB_RECOVERY_THREADS
  // environment variable (a positive count) when set and parseable,
  // otherwise `configured` (EngineOptions::recovery_threads), with 0
  // meaning hardware concurrency. Always >= 1; 1 = no pool.
  static uint32_t ResolveThreads(uint32_t configured);

 private:
  friend class InstantRecovery;

  // Per-segment outcome of replaying (or validating) one frame bucket.
  struct ReplayTally {
    uint64_t full_applies = 0;
    uint64_t delta_applies = 0;
    // Applied-record LSN span and source streams in first-touch (log)
    // order — the replay half of the segment's lineage.
    Lsn first_lsn = kInvalidLsn;
    Lsn last_lsn = kInvalidLsn;
    std::vector<uint32_t> streams;
    std::size_t error_frame = SIZE_MAX;  // frame of the failure, if any
  };
  // Decodes data frame `frame` and, if its transaction committed, checks
  // it against the database geometry and adds it to `out`; with `apply`
  // also writes it into `db`. On failure sets out->error_frame.
  static Status ReplayFrame(const LogReader& reader, std::size_t frame,
                            const std::unordered_set<TxnId>& committed,
                            Database* db, bool apply, ReplayTally* out);
  // ReplayFrame with `apply` over `frames` (one segment's bucket, log
  // order). Stops at the first bad frame.
  static Status ReplayBucket(const LogReader& reader,
                             const std::vector<std::size_t>& frames,
                             const std::unordered_set<TxnId>& committed,
                             Database* db, ReplayTally* out);

  // (Re)builds the plan's replay half from the suffix starting at
  // `from_offset`: committed set, buckets, last LSN, scan/apply counts,
  // the lineage replay fields, and the replay CPU (charging the meter the
  // difference from what the plan already charged).
  Status PlanReplay(Database* db, uint64_t from_offset,
                    InstantRecoveryPlan* plan) const;
  // The modeled phase durations for `backup_reads` segment reads
  // submitted at the crash instant, followed by the log suffix from the
  // plan's replay offset streamed in fixed chunks from where the backup
  // reads finished, plus the replay CPU. Call after PlanReplay.
  void ModelPhases(uint64_t backup_reads, InstantRecoveryPlan* plan) const;

  // Runs body(begin, end) over [0, n) in ChunkFor(n)-sized chunks on the
  // pool (inline, over the same chunks, without one or when `use_pool` is
  // false), adding the elapsed wall time to `*wall` and each chunk's busy
  // time to its worker's slot in `stats`. Returns the first error in
  // chunk order.
  Status FanOut(std::size_t n,
                const std::function<Status(std::size_t, std::size_t)>& body,
                RecoveryStats* stats, double* wall, bool use_pool) const;
  // ~4 chunks per worker: coarse enough to amortize enqueueing, fine
  // enough that a straggler cannot idle the pool for long. The
  // decomposition never affects results — every merge is by index or a
  // commutative reduction.
  std::size_t ChunkFor(std::size_t n) const;

  // Registry counters/timers and trace events for a finished recovery.
  void Publish(const InstantRecoveryPlan& plan) const;

  Env* env_;
  SystemParams params_;
  CpuMeter* meter_;
  MetricsRegistry* metrics_;
  Tracer* tracer_;
  ThreadPool* pool_;
  AuditJournal* audit_;
  uint32_t threads_;
};

}  // namespace mmdb

#endif  // MMDB_RECOVERY_RECOVERY_MANAGER_H_
