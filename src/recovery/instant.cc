#include "recovery/instant.h"

#include <algorithm>
#include <limits>
#include <string>

#include "util/string_util.h"
#include "wal/log_record.h"

namespace mmdb {

namespace {

const char* TriggerName(InstantRecovery::LoadTrigger trigger) {
  switch (trigger) {
    case InstantRecovery::LoadTrigger::kTouch:
      return "touch";
    case InstantRecovery::LoadTrigger::kBackground:
      return "background";
    case InstantRecovery::LoadTrigger::kForce:
      return "force";
  }
  return "unknown";
}

// Only CRC damage and device faults are survivable via the older copy;
// anything else (bad geometry, programming error) is fatal.
template <typename Failures>
Status FirstUnsurvivable(const Failures& failures) {
  for (const auto& f : failures) {
    if (!f.status.IsCorruption() && !f.status.IsIoError()) return f.status;
  }
  return Status::OK();
}

}  // namespace

InstantRecovery::InstantRecovery(InstantRecoveryPlan plan,
                                 const RecoveryManager& planner,
                                 BackupStore* backup, Database* db)
    : plan_(std::move(plan)),
      planner_(planner),
      backup_(backup),
      db_(db),
      num_segments_(db->num_segments()),
      disks_(planner.params_.disk) {
  availability_.assign(num_segments_, -1.0);
  submit_time_.assign(num_segments_, 0.0);
  touch_count_.assign(num_segments_, 0);
  loaded_.assign(num_segments_, false);
  unsubmitted_ = plan_.have_checkpoint ? num_segments_ : 0;
}

void InstantRecovery::StartClock(double now) {
  if (clock_started_) return;
  clock_started_ = true;
  start_ = now;
  last_completion_ = now;
  serving_ = plan_.have_checkpoint;
  if (!plan_.have_checkpoint) {
    // Cold start: there is no backup to read, so every segment is
    // "available" the instant the plan is — only its REDO replay remains.
    for (SegmentId s = 0; s < num_segments_; ++s) {
      availability_[s] = now;
      submit_time_[s] = now;
      due_.push_back(s);
    }
    return;
  }
  // Prime one request per device; every completion refills from the
  // pending set, so the array never idles until the schedule drains.
  const uint64_t window = std::min<uint64_t>(
      planner_.params_.disk.num_disks, static_cast<uint64_t>(num_segments_));
  for (uint64_t i = 0; i < window; ++i) {
    SubmitSegment(PickNextPending(), now);
  }
}

SegmentId InstantRecovery::PickNextPending() const {
  SegmentId best = num_segments_;
  uint64_t best_touches = 0;
  for (SegmentId s = 0; s < num_segments_; ++s) {
    if (availability_[s] >= 0.0) continue;  // already submitted
    if (best == num_segments_ || touch_count_[s] > best_touches) {
      best = s;
      best_touches = touch_count_[s];
    }
  }
  return best;
}

void InstantRecovery::SubmitSegment(SegmentId s, double at) {
  availability_[s] = disks_.Submit(at, planner_.params_.db.segment_words);
  submit_time_[s] = at;
  if (availability_[s] > last_completion_) {
    last_completion_ = availability_[s];
  }
  inflight_.push(Inflight{availability_[s], s});
  --unsubmitted_;
}

void InstantRecovery::AdvanceScheduleTo(double t) {
  while (!inflight_.empty() && inflight_.top().first <= t) {
    const SegmentId s = inflight_.top().second;
    const double done = inflight_.top().first;
    inflight_.pop();
    due_.push_back(s);
    if (unsubmitted_ > 0) {
      // Refill the freed device with the hottest pending segment.
      SubmitSegment(PickNextPending(), done);
    }
  }
}

double InstantRecovery::Touch(SegmentId s, double now) {
  AdvanceScheduleTo(now);
  if (s < num_segments_) ++touch_count_[s];
  if (s >= num_segments_ || loaded_[s]) return now;
  if (availability_[s] < 0.0) {
    // The schedule had not reached this segment: jump it to the front
    // (the earliest-available device picks it up next).
    SubmitSegment(s, now);
  }
  return std::max(availability_[s], now);
}

double InstantRecovery::CompleteSchedule() {
  serving_ = false;
  AdvanceScheduleTo(std::numeric_limits<double>::infinity());
  return last_completion_;
}

Status InstantRecovery::MaterializeDue(double now) {
  AdvanceScheduleTo(now);
  std::vector<SegmentId> work;
  work.swap(due_);
  return Materialize(work, now, LoadTrigger::kBackground);
}

Status InstantRecovery::MaterializeAll() {
  std::vector<SegmentId> all(num_segments_);
  for (SegmentId s = 0; s < num_segments_; ++s) all[s] = s;
  return Materialize(all, plan_.crash_time, LoadTrigger::kBackground);
}

Status InstantRecovery::Materialize(std::span<const SegmentId> segs,
                                    double now, LoadTrigger trigger) {
  MMDB_RETURN_IF_ERROR(failed_);
  std::vector<SegmentId> batch;
  for (SegmentId s : segs) {
    if (s >= num_segments_) {
      return InvalidArgumentError("segment out of range");
    }
    if (!loaded_[s]) batch.push_back(s);
  }
  if (batch.empty()) return Status::OK();
  const std::size_t requested = batch.size();
  Status st;
  if (plan_.have_checkpoint) {
    std::vector<SegmentFailure> failures;
    st = ReadSegments(batch, &failures);
    if (st.ok() && !failures.empty()) {
      st = FallBack(std::move(failures), &batch);
    }
  }
  if (st.ok()) st = ReplaySegments(batch);
  if (!st.ok()) {
    failed_ = st;
    return st;
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    loaded_[batch[i]] = true;
    ++loaded_count_;
    // Segments a fallback pulled into the batch load in the background.
    Announce(batch[i], i < requested ? trigger : LoadTrigger::kBackground,
             now);
  }
  return Status::OK();
}

Status InstantRecovery::ReadSegments(const std::vector<SegmentId>& ids,
                                     std::vector<SegmentFailure>* failures) {
  RecoveryStats& stats = plan_.result.stats;
  std::vector<Status> status(ids.size());
  // Segments are independent byte ranges of both the copy file and the
  // primary, so the reads + CRC checks fan out.
  MMDB_RETURN_IF_ERROR(planner_.FanOut(
      ids.size(),
      [&](std::size_t begin, std::size_t end) -> Status {
        std::string image;
        for (std::size_t i = begin; i < end; ++i) {
          const SegmentId s = ids[i];
          status[i] =
              backup_->ReadSegment(plan_.result.lineage[s].copy, s, &image);
          if (status[i].ok()) db_->WriteSegment(s, image);
        }
        return Status::OK();
      },
      &stats, &stats.backup_read_wall_seconds, /*use_pool=*/!serving_));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!status[i].ok()) failures->push_back(SegmentFailure{ids[i], status[i]});
  }
  return Status::OK();
}

Status InstantRecovery::FallBack(std::vector<SegmentFailure> failures,
                                 std::vector<SegmentId>* batch) {
  MMDB_RETURN_IF_ERROR(FirstUnsurvivable(failures));
  // A failure after the fallback means neither copy is readable: fatal.
  if (fell_back_) return failures.front().status;
  RecoveryResult& result = plan_.result;
  RecoveryStats& stats = result.stats;
  const LogReader& reader = plan_.reader;

  // Complete the failed set. Blocking recovery reads every segment of the
  // newest copy before deciding; the instant schedule may not have
  // reached some yet, so read the rest now.
  //
  // Segments loaded by earlier batches keep their bytes. A CRC-clean
  // newest-copy segment plus the main suffix already equals what the
  // longer replay gives: full images are idempotent, and a
  // copy-on-update copy (the only kind logical deltas are allowed with)
  // is the exact snapshot at its begin marker. Reloading them would
  // discard transactions committed since the restart.
  std::vector<bool> in_batch(num_segments_, false);
  for (SegmentId s : *batch) in_batch[s] = true;
  std::vector<SegmentId> rest;
  for (SegmentId s = 0; s < num_segments_; ++s) {
    if (!loaded_[s] && !in_batch[s]) rest.push_back(s);
  }
  MMDB_RETURN_IF_ERROR(ReadSegments(rest, &failures));
  MMDB_RETURN_IF_ERROR(FirstUnsurvivable(failures));
  batch->insert(batch->end(), rest.begin(), rest.end());
  std::sort(failures.begin(), failures.end(),
            [](const SegmentFailure& a, const SegmentFailure& b) {
              return a.segment < b.segment;
            });

  // The newest copy has CRC-bad or unreadable segments (a torn checkpoint
  // tail, scribbled in-flight slots, or device faults). The ping-pong
  // protocol guarantees the PREVIOUS checkpoint's copy was complete before
  // this one started overwriting the other file, so fall back to it and
  // replay the longer log suffix from its begin marker — which must still
  // be in the log, since truncation only ever cuts before the newest
  // complete checkpoint's marker.
  const CheckpointId prev_id = plan_.restore_id - 1;
  const uint32_t prev_copy = BackupStore::CopyFor(prev_id);
  bool found_prev = false;
  uint64_t prev_begin_offset = 0;
  LogRecord prev_begin_record;
  if (prev_id >= 1) {
    MMDB_RETURN_IF_ERROR(
        reader.ScanBackward([&](const LogRecord& r, uint64_t offset) {
          if (r.type == LogRecordType::kBeginCheckpoint &&
              r.checkpoint_id == prev_id) {
            prev_begin_offset = offset;
            prev_begin_record = r;
            found_prev = true;
            return false;
          }
          return true;
        }));
  }
  if (!found_prev) {
    return CorruptionError(StringPrintf(
        "backup copy %u of checkpoint %llu is unreadable (%s) and no "
        "older complete checkpoint is reachable in the log",
        plan_.restore_copy, static_cast<unsigned long long>(plan_.restore_id),
        failures.front().status.message().c_str()));
  }
  for (const ActiveTxnEntry& e : prev_begin_record.active_txns) {
    if (e.first_lsn != kInvalidLsn) {
      return NotSupportedError(
          "active transaction with pre-marker log records; update-time "
          "logging is not used by this engine");
    }
  }
  // Retry protocol: with full-image (UPDATE) replay only, re-reading JUST
  // the failed segments from the previous copy is sound — commit-time
  // logging puts every post-prev-marker update in the replay suffix, and
  // full images are idempotent, so the mixed-copy state converges to the
  // same bytes. DELTA records are logical additions and demand an exact
  // snapshot at the replay start point, so their presence in the suffix
  // forces a full reload of the previous copy.
  bool full_reload = false;
  MMDB_RETURN_IF_ERROR(reader.ScanForward(
      prev_begin_offset, [&](const LogRecord& r, uint64_t) {
        full_reload = r.type == LogRecordType::kDelta;
        return !full_reload;
      }));
  std::vector<SegmentId> retry;
  if (full_reload) {
    for (SegmentId s = 0; s < num_segments_; ++s) retry.push_back(s);
  } else {
    for (const SegmentFailure& f : failures) retry.push_back(f.segment);
  }
  if (planner_.audit_ != nullptr) {
    const std::string trigger = failures.front().status.ToString();
    planner_.audit_->Record(
        "recovery.fallback", plan_.crash_time, [&](JsonWriter& w) {
          w.Key("from_checkpoint");
          w.Uint(plan_.restore_id);
          w.Key("from_copy");
          w.Uint(plan_.restore_copy);
          w.Key("to_checkpoint");
          w.Uint(prev_id);
          w.Key("to_copy");
          w.Uint(prev_copy);
          w.Key("trigger");
          w.String(trigger);
          w.Key("failed_segments");
          w.BeginArray();
          for (const SegmentFailure& f : failures) w.Uint(f.segment);
          w.EndArray();
          w.Key("full_reload");
          w.Bool(full_reload);
        });
  }
  // Every retried segment's provenance is now the previous copy
  // (mixed-copy when the retry set is partial), as in a blocking restart.
  for (SegmentId s : retry) {
    SegmentLineage& l = result.lineage[s];
    l.checkpoint_id = prev_id;
    l.copy = prev_copy;
    l.retried = true;
  }
  plan_.restore_id = prev_id;
  plan_.restore_copy = prev_copy;
  plan_.replay_from_offset = prev_begin_offset;
  stats.checkpoint_id = prev_id;
  stats.copy = prev_copy;
  stats.fell_back_to_older_copy = true;
  stats.segments_retried = retry.size();
  fell_back_ = true;

  // Re-read the retried segments not yet loaded from the older copy: the
  // failed set, or on a full reload the whole batch, which now holds
  // every segment not yet loaded.
  std::vector<SegmentFailure> retry_failures;
  MMDB_RETURN_IF_ERROR(
      ReadSegments(full_reload ? *batch : retry, &retry_failures));
  if (!retry_failures.empty()) return retry_failures.front().status;

  // The modeled stats follow blocking recovery's count: one read per
  // newest-copy survivor plus one per retry, all at the crash instant.
  MMDB_RETURN_IF_ERROR(planner_.PlanReplay(db_, prev_begin_offset, &plan_));
  planner_.ModelPhases(num_segments_ - failures.size() + retry.size(),
                       &plan_);
  return Status::OK();
}

Status InstantRecovery::ReplaySegments(const std::vector<SegmentId>& ids) {
  RecoveryStats& stats = plan_.result.stats;
  // Buckets touch disjoint byte ranges of the primary and the committed
  // set is read-only, so segments replay concurrently and the restored
  // bytes are identical to sequential replay. The plan validated every
  // bucketed frame, so an error here means the log changed underneath.
  return planner_.FanOut(
      ids.size(),
      [&](std::size_t begin, std::size_t end) -> Status {
        for (std::size_t i = begin; i < end; ++i) {
          RecoveryManager::ReplayTally tally;
          MMDB_RETURN_IF_ERROR(RecoveryManager::ReplayBucket(
              plan_.reader, plan_.buckets[ids[i]], plan_.committed, db_,
              &tally));
        }
        return Status::OK();
      },
      &stats, &stats.replay_wall_seconds, /*use_pool=*/!serving_);
}

void InstantRecovery::Announce(SegmentId s, LoadTrigger trigger, double now) {
  if (!clock_started_) return;
  const uint64_t order = load_order_++;
  switch (trigger) {
    case LoadTrigger::kTouch:
      ++touch_loads_;
      break;
    case LoadTrigger::kBackground:
      ++background_loads_;
      break;
    case LoadTrigger::kForce:
      ++force_loads_;
      break;
  }
  const SegmentLineage& l = plan_.result.lineage[s];
  if (planner_.audit_ != nullptr) {
    planner_.audit_->Record(
        "recovery.segment_on_demand", now, [&](JsonWriter& w) {
          w.Key("segment");
          w.Uint(s);
          w.Key("trigger");
          w.String(TriggerName(trigger));
          w.Key("checkpoint");
          w.Uint(l.checkpoint_id);
          w.Key("copy");
          w.Uint(l.copy);
          w.Key("retried");
          w.Bool(l.retried);
          w.Key("frames");
          w.Uint(l.frames);
          w.Key("order");
          w.Uint(order);
        });
  }
  if (planner_.tracer_ != nullptr) {
    const bool scheduled = availability_[s] >= 0.0;
    const double submit = scheduled ? submit_time_[s] : now;
    const double avail = scheduled ? std::max(availability_[s], submit) : now;
    planner_.tracer_->Record(TraceEventType::kRecoverySegmentOnDemand, submit,
                             avail, static_cast<int64_t>(s),
                             static_cast<int64_t>(trigger),
                             static_cast<int64_t>(order));
  }
  if (planner_.metrics_ != nullptr) {
    planner_.metrics_->counter("recovery.segments_on_demand")->Increment();
  }
}

void InstantRecovery::Finish() {
  planner_.Publish(plan_);
  const RecoveryResult& r = plan_.result;
  AuditJournal* audit = planner_.audit_;
  if (audit != nullptr) {
    audit->Record("recovery.lineage", plan_.crash_time, [&](JsonWriter& w) {
      w.Key("lineage");
      WriteLineageJson(r.lineage, &w);
    });
    audit->Record("recovery.end", plan_.crash_time, [&](JsonWriter& w) {
      w.Key("checkpoint");
      w.Uint(r.stats.checkpoint_id);
      w.Key("copy");
      w.Uint(r.stats.copy);
      w.Key("fell_back");
      w.Bool(r.stats.fell_back_to_older_copy);
      w.Key("last_lsn");
      w.Uint(r.last_lsn);
      w.Key("applies");
      w.Uint(r.stats.updates_applied);
      w.Key("txns");
      w.Uint(r.stats.txns_redone);
    });
    audit->Sync();
  }
}

}  // namespace mmdb
