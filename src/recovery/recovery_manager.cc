#include "recovery/recovery_manager.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <unordered_set>
#include <utility>

#include "parallel/parallel.h"
#include "sim/disk_model.h"
#include "util/coding.h"
#include "util/string_util.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"

namespace mmdb {

namespace {

using WallClock = std::chrono::steady_clock;

double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

}  // namespace

RecoveryManager::RecoveryManager(Env* env, const SystemParams& params,
                                 CpuMeter* meter, MetricsRegistry* metrics,
                                 Tracer* tracer, ThreadPool* pool,
                                 AuditJournal* audit)
    : env_(env),
      params_(params),
      meter_(meter),
      metrics_(metrics),
      tracer_(tracer),
      pool_(pool),
      audit_(audit),
      threads_(pool != nullptr ? static_cast<uint32_t>(pool->num_threads())
                               : 1) {}

uint32_t RecoveryManager::ResolveThreads(uint32_t configured) {
  const char* env = std::getenv("MMDB_RECOVERY_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    if (end != nullptr && *end == '\0' && parsed > 0) {
      return static_cast<uint32_t>(parsed);
    }
  }
  if (configured != 0) return configured;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<uint32_t>(hw);
}

std::size_t RecoveryManager::ChunkFor(std::size_t n) const {
  const std::size_t target = static_cast<std::size_t>(threads_) * 4;
  return std::max<std::size_t>(1, (n + target - 1) / target);
}

Status RecoveryManager::FanOut(
    std::size_t n, const std::function<Status(std::size_t, std::size_t)>& body,
    RecoveryStats* stats, double* wall, bool use_pool) const {
  const WallClock::time_point phase_start = WallClock::now();
  // Nanosecond integer accumulators (not atomic<double>) so concurrent
  // adds stay lock-free and exact.
  std::vector<std::atomic<uint64_t>> busy_ns(threads_);
  Status st = ParallelFor(
      use_pool ? pool_ : nullptr, n, ChunkFor(n),
      [&](std::size_t begin, std::size_t end) {
        const WallClock::time_point start = WallClock::now();
        Status chunk = body(begin, end);
        const int w = ThreadPool::CurrentWorkerIndex();
        const std::size_t slot =
            w < 0 || static_cast<std::size_t>(w) >= busy_ns.size()
                ? 0
                : static_cast<std::size_t>(w);
        busy_ns[slot].fetch_add(
            static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    WallClock::now() - start)
                    .count()),
            std::memory_order_relaxed);
        return chunk;
      });
  for (std::size_t i = 0; i < busy_ns.size(); ++i) {
    stats->thread_busy_seconds[i] +=
        static_cast<double>(busy_ns[i].load(std::memory_order_relaxed)) *
        1e-9;
  }
  *wall += SecondsSince(phase_start);
  return st;
}

void RecoveryManager::Publish(const InstantRecoveryPlan& plan) const {
  const RecoveryStats& stats = plan.result.stats;
  const double now = plan.crash_time;
  if (metrics_ != nullptr) {
    metrics_->counter("recovery.runs")->Increment();
    metrics_->counter("recovery.segments_loaded")
        ->Increment(stats.segments_loaded);
    metrics_->counter("recovery.segments_retried")
        ->Increment(stats.segments_retried);
    metrics_->counter("recovery.log_bytes_read")
        ->Increment(stats.log_bytes_read);
    metrics_->counter("recovery.updates_applied")
        ->Increment(stats.updates_applied);
    metrics_->counter("recovery.txns_redone")->Increment(stats.txns_redone);
    if (stats.fell_back_to_older_copy) {
      metrics_->counter("recovery.copy_fallbacks")->Increment();
    }
    metrics_->timer("recovery.backup_read_seconds")
        ->Record(stats.backup_read_seconds);
    metrics_->timer("recovery.log_read_seconds")
        ->Record(stats.log_read_seconds);
    metrics_->timer("recovery.replay_cpu_seconds")
        ->Record(stats.replay_cpu_seconds);
    metrics_->timer("recovery.total_seconds")->Record(stats.total_seconds);
  }
  if (tracer_ != nullptr) {
    tracer_->Record(
        TraceEventType::kRecoveryPhase, now, stats.backup_read_seconds,
        static_cast<int64_t>(RecoveryPhase::kBackupLoad),
        static_cast<int64_t>(stats.segments_loaded),
        static_cast<int64_t>(stats.copy));
    tracer_->Record(TraceEventType::kRecoveryPhase, now,
                    stats.log_read_seconds,
                    static_cast<int64_t>(RecoveryPhase::kLogRead),
                    static_cast<int64_t>(stats.log_bytes_read));
    tracer_->Record(TraceEventType::kRecoveryPhase, now,
                    stats.replay_cpu_seconds,
                    static_cast<int64_t>(RecoveryPhase::kReplay),
                    static_cast<int64_t>(stats.updates_applied),
                    static_cast<int64_t>(stats.txns_redone));
    tracer_->Record(TraceEventType::kRecoveryFanout, now, 0.0,
                    static_cast<int64_t>(stats.threads_used),
                    static_cast<int64_t>(stats.segments_loaded),
                    static_cast<int64_t>(plan.replay_buckets));
    tracer_->Record(TraceEventType::kRecoveryEnd, now, stats.total_seconds,
                    static_cast<int64_t>(stats.checkpoint_id));
  }
}

StatusOr<InstantRecoveryPlan> RecoveryManager::PlanInstant(
    BackupStore* backup, const std::vector<std::string>& log_paths,
    Database* db, SegmentTable* segments, double now) {
  InstantRecoveryPlan plan;
  plan.crash_time = now;
  RecoveryResult& result = plan.result;
  result.stats.threads_used = threads_;
  result.stats.thread_busy_seconds.assign(threads_, 0.0);

  // --- Phase 1: decide which checkpoint to restore ----------------------
  // Two sources name the last complete checkpoint: the metadata file
  // (renamed into place after the end marker is durable) and the log's own
  // backward scan for an end-checkpoint marker (the paper's rule). The
  // metadata may legitimately lag: a crash can land after the end marker
  // reached stable storage but before the metadata rename, and failed
  // metadata rewrites degrade gracefully (the checkpoint still counts), so
  // the lag can span several checkpoints. The log is then ahead, and the
  // newer checkpoint IS complete (its segment writes all finished before
  // its end marker was cut), so the log wins. Metadata NEWER than the
  // log's last end marker is corruption.
  db->Clear();
  MMDB_ASSIGN_OR_RETURN(
      plan.reader,
      LogReader::OpenStreams(env_, log_paths, &result.stream_valid_bytes));
  const LogReader& reader = plan.reader;
  result.log_valid_bytes = reader.valid_bytes();
  if (audit_ != nullptr) {
    // What the stream merge salvaged: the valid prefix per stream, the
    // CRC-clean frames each stream lost past the merge frontier, and
    // whether a gang batch was torn across streams at crash time.
    audit_->Record("recovery.streams", now, [&](JsonWriter& w) {
      w.Key("valid_bytes");
      w.BeginArray();
      for (uint64_t v : result.stream_valid_bytes) w.Uint(v);
      w.EndArray();
      w.Key("dropped_frames");
      w.BeginArray();
      for (uint64_t v : reader.stream_dropped_frames()) w.Uint(v);
      w.EndArray();
      w.Key("torn_gang");
      w.Bool(reader.torn_gang());
      w.Key("gap_lsn");
      w.Uint(reader.torn_gang_lsn());
    });
  }

  StatusOr<CheckpointMeta> meta = backup->ReadMeta();
  if (!meta.ok() && !meta.status().IsNotFound()) return meta.status();
  StatusOr<LogReader::CheckpointMarker> marker =
      reader.FindLastCompleteCheckpoint();
  if (!marker.ok() && !marker.status().IsNotFound()) return marker.status();

  // Which source named the restored checkpoint: "meta" when metadata and
  // log agree, "log" when the log's end marker overruled lagging/missing
  // metadata, "none" for a cold start.
  const char* plan_source = "none";
  if (marker.ok()) {
    if (meta.ok() && meta->checkpoint_id == marker->checkpoint_id) {
      if (meta->log_offset != marker->begin_offset) {
        return CorruptionError(StringPrintf(
            "checkpoint metadata offset %llu disagrees with the log's "
            "begin marker at %llu for checkpoint %llu",
            static_cast<unsigned long long>(meta->log_offset),
            static_cast<unsigned long long>(marker->begin_offset),
            static_cast<unsigned long long>(meta->checkpoint_id)));
      }
      plan.restore_copy = meta->copy;
      plan_source = "meta";
    } else if (!meta.ok() || meta->checkpoint_id < marker->checkpoint_id) {
      // Metadata lags the log (or is missing for the very first
      // checkpoint): a crash can land after the end marker reached stable
      // storage but before the metadata rename, and with graceful
      // degradation of failed metadata rewrites the lag can exceed one
      // checkpoint. The end marker always certifies a complete copy, so
      // trust the log and repair the metadata so later restarts (and log
      // truncation) see a consistent pair.
      plan.restore_copy = BackupStore::CopyFor(marker->checkpoint_id);
      CheckpointMeta repaired;
      repaired.checkpoint_id = marker->checkpoint_id;
      repaired.copy = plan.restore_copy;
      repaired.log_offset = marker->begin_offset;
      repaired.begin_lsn = marker->begin_record.lsn;
      repaired.tau = marker->begin_record.timestamp;
      MMDB_RETURN_IF_ERROR(backup->CommitCheckpoint(repaired));
      plan_source = "log";
    } else {
      return CorruptionError(StringPrintf(
          "checkpoint metadata (id=%llu) and log (id=%llu) are "
          "irreconcilable",
          static_cast<unsigned long long>(
              meta.ok() ? meta->checkpoint_id : 0),
          static_cast<unsigned long long>(marker->checkpoint_id)));
    }
    plan.have_checkpoint = true;
    plan.restore_id = marker->checkpoint_id;
    plan.replay_from_offset = marker->begin_offset;
    result.newest_end_id = marker->checkpoint_id;
    result.stats.checkpoint_id = plan.restore_id;
    result.stats.copy = plan.restore_copy;
    // Fuzzy checkpoints may require scanning back to the earliest
    // transaction active at the marker. Under commit-time logging an
    // active transaction has no log records yet, so the extension is
    // always empty; verify that invariant.
    for (const ActiveTxnEntry& e : marker->begin_record.active_txns) {
      if (e.first_lsn != kInvalidLsn) {
        return NotSupportedError(
            "active transaction with pre-marker log records; update-time "
            "logging is not used by this engine");
      }
    }
  } else if (meta.ok()) {
    // The metadata survived but the log lost the completion marker the
    // rename was ordered after: impossible without corruption.
    return CorruptionError(
        "checkpoint metadata names a checkpoint but the log has no "
        "completed checkpoint");
  }
  if (audit_ != nullptr) {
    audit_->Record("recovery.plan", now, [&](JsonWriter& w) {
      w.Key("checkpoint");
      w.Uint(plan.restore_id);
      w.Key("copy");
      w.Uint(plan.restore_copy);
      w.Key("begin_offset");
      w.Uint(plan.replay_from_offset);
      w.Key("source");
      w.String(plan_source);
    });
  }

  // Seed every segment's lineage with the restore source; the fallback
  // and the replay plan refine individual entries.
  result.lineage.assign(db->num_segments(), SegmentLineage{});
  if (plan.have_checkpoint) {
    for (SegmentLineage& l : result.lineage) {
      l.checkpoint_id = plan.restore_id;
      l.copy = plan.restore_copy;
    }
  }

  MMDB_RETURN_IF_ERROR(PlanReplay(db, plan.replay_from_offset, &plan));
  ModelPhases(plan.have_checkpoint ? db->num_segments() : 0, &plan);

  // Control state restarts conservatively: everything dirty (the next two
  // checkpoints will rewrite both copies in partial mode), colors white,
  // no old copies, no LSNs.
  segments->Reset();
  segments->MarkAllDirty();
  return plan;
}

Status RecoveryManager::ReplayFrame(const LogReader& reader,
                                    std::size_t frame,
                                    const std::unordered_set<TxnId>& committed,
                                    Database* db, bool apply,
                                    ReplayTally* out) {
  DataRecordView r;
  Status decoded = reader.DataRecordAt(frame, &r);
  if (!decoded.ok()) {
    out->error_frame = frame;
    return decoded;
  }
  if (committed.count(r.txn_id) == 0) return Status::OK();
  if (r.type == LogRecordType::kUpdate) {
    if (r.record_id >= db->num_records() ||
        r.image.size() != db->record_bytes()) {
      out->error_frame = frame;
      return CorruptionError(StringPrintf(
          "update record for txn %llu is malformed",
          static_cast<unsigned long long>(r.txn_id)));
    }
    if (apply) db->WriteRecord(r.record_id, r.image);
    ++out->full_applies;
  } else {
    // kDelta. Logical REDO: NOT idempotent — correct exactly because the
    // restored backup is the snapshot at the replay start point
    // (enforced at write time; see Engine::WriteDelta).
    if (r.record_id >= db->num_records() ||
        r.field_offset + 8 > db->record_bytes()) {
      out->error_frame = frame;
      return CorruptionError(StringPrintf(
          "delta record for txn %llu is malformed",
          static_cast<unsigned long long>(r.txn_id)));
    }
    if (apply) {
      std::string image(db->ReadRecord(r.record_id));
      uint64_t field = DecodeFixed64(image.data() + r.field_offset);
      EncodeFixed64(image.data() + r.field_offset,
                    field + static_cast<uint64_t>(r.delta));
      db->WriteRecord(r.record_id, image);
    }
    ++out->delta_applies;
  }
  if (out->first_lsn == kInvalidLsn) out->first_lsn = r.lsn;
  out->last_lsn = r.lsn;
  const uint32_t stream = reader.FrameStream(frame);
  if (std::find(out->streams.begin(), out->streams.end(), stream) ==
      out->streams.end()) {
    out->streams.push_back(stream);
  }
  return Status::OK();
}

Status RecoveryManager::ReplayBucket(const LogReader& reader,
                                     const std::vector<std::size_t>& frames,
                                     const std::unordered_set<TxnId>& committed,
                                     Database* db, ReplayTally* out) {
  for (std::size_t frame : frames) {
    MMDB_RETURN_IF_ERROR(
        ReplayFrame(reader, frame, committed, db, /*apply=*/true, out));
  }
  return Status::OK();
}

Status RecoveryManager::PlanReplay(Database* db, uint64_t from_offset,
                                   InstantRecoveryPlan* plan) const {
  const LogReader& reader = plan->reader;
  RecoveryResult& result = plan->result;
  RecoveryStats& stats = result.stats;

  // Pass 1 — classification scan: shallow-decode every frame in the
  // replay suffix to find the committed set, the max LSN, and the
  // per-segment buckets. Frame ranges are disjoint and the reader is
  // immutable, so chunks decode concurrently; chunk results merge in
  // chunk order, making every output identical to a serial scan.
  std::size_t start_frame = 0;
  if (reader.num_frames() > 0) {
    MMDB_ASSIGN_OR_RETURN(start_frame, reader.FrameIndexAt(from_offset));
  }
  const std::size_t suffix_frames = reader.num_frames() - start_frame;
  struct ScanChunk {
    uint64_t records = 0;
    Lsn max_lsn = kInvalidLsn;
    std::vector<TxnId> commits;
    // (record_id, absolute frame index) of each UPDATE/DELTA, frame order.
    std::vector<std::pair<RecordId, std::size_t>> data;
  };
  const std::size_t scan_chunk = ChunkFor(suffix_frames);
  std::vector<ScanChunk> scan_chunks((suffix_frames + scan_chunk - 1) /
                                     scan_chunk);
  MMDB_RETURN_IF_ERROR(FanOut(
      suffix_frames,
      [&](std::size_t begin, std::size_t end) -> Status {
        ScanChunk& out = scan_chunks[begin / scan_chunk];
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t frame = start_frame + i;
          LogRecordHeader h;
          MMDB_RETURN_IF_ERROR(reader.HeaderAt(frame, &h));
          ++out.records;
          if (out.max_lsn == kInvalidLsn || h.lsn > out.max_lsn) {
            out.max_lsn = h.lsn;
          }
          if (h.type == LogRecordType::kCommit) {
            out.commits.push_back(h.txn_id);
          } else if (h.type == LogRecordType::kUpdate ||
                     h.type == LogRecordType::kDelta) {
            out.data.emplace_back(h.record_id, frame);
          }
        }
        return Status::OK();
      },
      &stats, &stats.log_scan_wall_seconds, /*use_pool=*/true));

  // Merge pass (serial, chunk order): commit set, counters, and the
  // per-segment frame lists. Appending chunk by chunk preserves global
  // frame order within every bucket — the invariant partitioned replay
  // relies on. Out-of-range record ids are parked in an overflow bucket
  // whose validation reports the malformed record.
  const std::size_t num_buckets =
      static_cast<std::size_t>(db->num_segments()) + 1;
  const uint64_t records_per_segment = params_.db.records_per_segment();
  auto bucket_of = [&](RecordId record_id) {
    return static_cast<std::size_t>(
        std::min<uint64_t>(record_id / records_per_segment, num_buckets - 1));
  };
  plan->committed.clear();
  plan->buckets.assign(num_buckets, {});
  stats.records_scanned = 0;
  Lsn last_lsn = kInvalidLsn;
  for (const ScanChunk& c : scan_chunks) {
    stats.records_scanned += c.records;
    if (c.max_lsn != kInvalidLsn &&
        (last_lsn == kInvalidLsn || c.max_lsn > last_lsn)) {
      last_lsn = c.max_lsn;
    }
    for (TxnId t : c.commits) plan->committed.insert(t);
    for (const auto& [record_id, frame] : c.data) {
      plan->buckets[bucket_of(record_id)].push_back(frame);
    }
  }
  // Records before the marker can carry higher LSNs after a previous
  // recovery reopened the log, so take the global max with the newest.
  const WallClock::time_point tail_start = WallClock::now();
  MMDB_RETURN_IF_ERROR(
      reader.ScanBackward([&](const LogRecord& r, uint64_t) {
        if (last_lsn == kInvalidLsn || r.lsn > last_lsn) last_lsn = r.lsn;
        return false;  // only the newest record is needed
      }));
  result.last_lsn = last_lsn;
  stats.log_scan_wall_seconds += SecondsSince(tail_start);

  // Pass 2 — eager validation: full-decode every bucketed frame and check
  // every committed one exactly as replay will, applying nothing, so a
  // log that cannot be replayed fails the plan instead of surfacing
  // mid-service. One serial walk of the data frames in log order: it
  // reads the reader's bytes front to back, where a walk per bucket jumps
  // across the whole suffix for every segment, and it costs the same
  // whatever the host's idle cores. The first failure is the record a
  // serial replay would have died on. Every bucket's frames are visited
  // in their own log order, so the per-bucket tallies equal replay's:
  // the lineage and the closed-form replay CPU.
  const WallClock::time_point validate_start = WallClock::now();
  std::vector<ReplayTally> tallies(num_buckets);
  for (const ScanChunk& c : scan_chunks) {
    for (const auto& [record_id, frame] : c.data) {
      MMDB_RETURN_IF_ERROR(ReplayFrame(reader, frame, plan->committed, db,
                                       /*apply=*/false,
                                       &tallies[bucket_of(record_id)]));
    }
  }
  stats.log_scan_wall_seconds += SecondsSince(validate_start);

  plan->replay_buckets = 0;
  uint64_t full_applies = 0;
  uint64_t delta_applies = 0;
  for (SegmentLineage& l : result.lineage) {
    l.frames = 0;
    l.first_lsn = kInvalidLsn;
    l.last_lsn = kInvalidLsn;
    l.streams.clear();
  }
  for (std::size_t b = 0; b < num_buckets; ++b) {
    if (plan->buckets[b].empty()) continue;
    ++plan->replay_buckets;
    const ReplayTally& t = tallies[b];
    full_applies += t.full_applies;
    delta_applies += t.delta_applies;
    if (b >= result.lineage.size()) continue;  // overflow bucket
    SegmentLineage& l = result.lineage[b];
    l.frames = t.full_applies + t.delta_applies;
    l.first_lsn = t.first_lsn;
    l.last_lsn = t.last_lsn;
    l.streams = t.streams;
  }
  stats.updates_applied = full_applies + delta_applies;
  stats.txns_redone = plan->committed.size();

  // Closed-form instruction count from the integer apply tallies —
  // deliberately NOT accumulated per record, so the modeled CPU charge
  // cannot pick up floating-point ordering noise from the fan-out. The
  // counts are integral, so charging a re-plan's difference is exact.
  const double instructions =
      params_.costs.move_per_word *
          static_cast<double>(params_.db.record_words) *
          static_cast<double>(full_applies) +
      (8.0 / kWordBytes) * static_cast<double>(delta_applies);
  meter_->Charge(CpuCategory::kRecovery,
                 instructions - plan->replay_instructions);
  plan->replay_instructions = instructions;
  stats.replay_cpu_seconds = params_.InstructionsToSeconds(instructions);
  return Status::OK();
}

void RecoveryManager::ModelPhases(uint64_t backup_reads,
                                  InstantRecoveryPlan* plan) const {
  RecoveryStats& stats = plan->result.stats;
  const double now = plan->crash_time;
  // One backup-array request per segment read, all submitted at the
  // crash instant; then the log suffix, read sequentially from the marker
  // in large striped chunks across the log disks, starting where the
  // backup reads finished. Fresh disk state: the arrays restart with the
  // machine.
  double backup_done = now;
  if (plan->have_checkpoint) {
    DiskArrayModel backup_disks(params_.disk);
    for (uint64_t i = 0; i < backup_reads; ++i) {
      backup_disks.Submit(now, params_.db.segment_words);
    }
    backup_done = std::max(now, backup_disks.AllIdleTime());
    stats.segments_loaded = backup_reads;
  }
  stats.backup_read_seconds = backup_done - now;

  const uint64_t valid = plan->result.log_valid_bytes;
  stats.log_bytes_read = valid > plan->replay_from_offset
                             ? valid - plan->replay_from_offset
                             : 0;
  constexpr uint64_t kChunkWords = 64 * 1024;  // 256 KiB per device request
  const uint64_t log_words = (stats.log_bytes_read + kWordBytes - 1) /
                             kWordBytes;
  DiskArrayModel log_disks(params_.disk.LogArray());
  for (uint64_t w = 0; w < log_words; w += kChunkWords) {
    log_disks.Submit(backup_done, std::min(kChunkWords, log_words - w));
  }
  const double log_done = std::max(log_disks.AllIdleTime(), backup_done);
  stats.log_read_seconds = log_done - backup_done;
  stats.total_seconds = (log_done - now) + stats.replay_cpu_seconds;
}

}  // namespace mmdb
