#include "wal/log_manager.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/coding.h"
#include "util/crc32c.h"

namespace mmdb {

namespace {

template <typename Record>
void EncodeFrame(const Record& record, std::string* dst) {
  // Encode the payload straight into *dst (the caller's long-lived tail
  // buffer) behind a length placeholder — no per-record scratch string.
  // EncodedSize() is a cheap arithmetic walk, so the reserve costs nothing
  // and the appends below never re-grow.
  dst->reserve(dst->size() + record.EncodedSize() + kLogFrameOverhead);
  const size_t len_pos = dst->size();
  PutFixed32(dst, 0);  // backfilled once the payload size is known
  const size_t payload_pos = dst->size();
  record.EncodeTo(dst);
  const uint32_t payload_size =
      static_cast<uint32_t>(dst->size() - payload_pos);
  EncodeFixed32(dst->data() + len_pos, payload_size);
  uint32_t crc =
      crc32c::Mask(crc32c::Value(dst->data() + payload_pos, payload_size));
  PutFixed32(dst, crc);
  PutFixed32(dst, payload_size);
}

}  // namespace

void EncodeLogFrame(const LogRecord& record, std::string* dst) {
  EncodeFrame(record, dst);
}

std::string EncodeLogFileHeader(uint64_t base_offset) {
  std::string header;
  PutFixed32(&header, kLogFileMagic);
  PutFixed32(&header, kLogFileVersion);
  PutFixed64(&header, base_offset);
  return header;
}

std::string LogManager::StreamPath(const std::string& base, uint32_t k) {
  if (k == 0) return base;
  return base + "." + std::to_string(k);
}

LogManager::LogManager(Env* env, std::string path, const SystemParams& params,
                       CpuMeter* meter, bool stable_log_tail,
                       double min_flush_spacing, uint32_t num_streams)
    : env_(env),
      path_(std::move(path)),
      params_(params),
      meter_(meter),
      stable_log_tail_(stable_log_tail),
      min_flush_spacing_(min_flush_spacing) {
  if (num_streams == 0) num_streams = 1;
  streams_.resize(num_streams);
  for (uint32_t k = 0; k < num_streams; ++k) {
    streams_[k].path = StreamPath(path_, k);
  }
}

Status LogManager::Open() {
  for (Stream& s : streams_) {
    MMDB_ASSIGN_OR_RETURN(s.file, env_->NewWritableFile(s.path));
    s.base_offset = 0;
    MMDB_RETURN_IF_ERROR(s.file->Append(EncodeLogFileHeader(0)));
  }
  base_offset_ = 0;
  return Status::OK();
}

Status LogManager::PersistRewrite(const std::string& path,
                                  const std::string& contents) {
  const std::string tmp = path + ".tmp";
  MMDB_RETURN_IF_ERROR(env_->WriteStringToFile(tmp, contents, /*sync=*/true));
  return env_->RenameFile(tmp, path);
}

bool LogManager::AnyDamaged() const {
  for (const Stream& s : streams_) {
    if (s.damaged) return true;
  }
  return false;
}

Status LogManager::RepairStream(Stream* s) {
  // A failed gang append may have deposited an arbitrary prefix of the
  // stream's batch slice. Close may itself fail on a hosed device; the
  // rewrite supersedes whatever state the handle left behind.
  if (s->file != nullptr) (void)s->file->Close();
  s->file.reset();
  std::string contents;
  MMDB_RETURN_IF_ERROR(env_->ReadFileToString(s->path, &contents));
  uint64_t keep = kLogFileHeaderBytes + (s->written_bytes - s->base_offset);
  if (contents.size() < keep) {
    return CorruptionError("log file lost bytes that were already flushed");
  }
  contents.resize(keep);
  Status rewrite = PersistRewrite(s->path, contents);
  // Reopen even if the rewrite failed (the original file is intact — temp
  // plus rename) so the manager stays usable; damaged then remains set
  // and the next Flush retries the repair.
  MMDB_ASSIGN_OR_RETURN(s->file, env_->NewAppendableFile(s->path));
  MMDB_RETURN_IF_ERROR(rewrite);
  s->damaged = false;
  return Status::OK();
}

Status LogManager::Repair() {
  for (Stream& s : streams_) {
    if (s.damaged) MMDB_RETURN_IF_ERROR(RepairStream(&s));
  }
  return Status::OK();
}

Status LogManager::OpenExisting(
    const std::vector<uint64_t>& stream_valid_bytes, Lsn next_lsn) {
  if (stream_valid_bytes.size() != streams_.size()) {
    return InvalidArgumentError(
        "OpenExisting: one valid-bytes entry per stream required");
  }
  uint64_t total_valid = 0;
  uint64_t total_base = 0;
  for (size_t k = 0; k < streams_.size(); ++k) {
    Stream& s = streams_[k];
    const uint64_t valid = stream_valid_bytes[k];
    std::string contents;
    MMDB_RETURN_IF_ERROR(env_->ReadFileToString(s.path, &contents));
    uint64_t base = 0;
    if (contents.size() >= kLogFileHeaderBytes &&
        DecodeFixed32(contents.data()) == kLogFileMagic) {
      base = DecodeFixed64(contents.data() + 8);
      contents.erase(0, kLogFileHeaderBytes);
    }
    if (base + contents.size() < valid || valid < base) {
      return CorruptionError("log file shorter than its valid prefix");
    }
    contents.resize(valid - base);
    std::string rewritten = EncodeLogFileHeader(base);
    rewritten += contents;
    MMDB_RETURN_IF_ERROR(PersistRewrite(s.path, rewritten));
    MMDB_ASSIGN_OR_RETURN(s.file, env_->NewAppendableFile(s.path));
    s.base_offset = base;
    s.damaged = false;
    s.written_bytes = valid;
    s.appended_bytes = valid;
    s.durable_bytes_floor = valid;
    s.tail.clear();
    total_valid += valid;
    total_base += base;
  }
  base_offset_ = total_base;
  written_bytes_ = total_valid;
  appended_bytes_ = total_valid;
  tail_bytes_ = 0;
  next_lsn_ = next_lsn;
  tail_last_lsn_ = kInvalidLsn;
  pending_.clear();
  checkpoint_cuts_.clear();
  flushed_lsn_ = next_lsn > 0 ? next_lsn - 1 : kInvalidLsn;
  durable_floor_ = flushed_lsn_;
  epoch_floor_ = epoch_seq_;
  return Status::OK();
}

Status LogManager::OpenExisting(uint64_t existing_bytes, Lsn next_lsn) {
  if (streams_.size() != 1) {
    return InvalidArgumentError(
        "single-offset OpenExisting requires a single-stream log");
  }
  return OpenExisting(std::vector<uint64_t>{existing_bytes}, next_lsn);
}

void LogManager::set_obs(MetricsRegistry* registry, Tracer* tracer) {
  tracer_ = tracer;
  if (registry == nullptr) return;
  m_appends_ = registry->counter("log.appends");
  m_append_bytes_ = registry->counter("log.append_bytes");
  m_flush_batches_ = registry->counter("log.flush_batches");
  m_flush_bytes_ = registry->counter("log.flush_bytes");
  m_flush_errors_ = registry->counter("log.flush_errors");
  m_group_merges_ = registry->counter("log.group_commit_merges");
  m_flush_seconds_ = registry->timer("log.flush_seconds");
}

template <typename Record>
Lsn LogManager::AppendFrame(Record* record, double now, uint32_t stream) {
  Stream& s = streams_[stream];
  record->lsn = next_lsn_++;
  size_t before = s.tail.size();
  EncodeFrame(*record, &s.tail);
  size_t frame_bytes = s.tail.size() - before;
  appended_bytes_ += frame_bytes;
  tail_bytes_ += frame_bytes;
  s.appended_bytes += frame_bytes;
  ++s.appends;
  s.append_bytes += frame_bytes;
  tail_last_lsn_ = record->lsn;
  // Log creation is data movement into the log buffer: 1 instr/word. This
  // is base logging work, excluded from checkpoint-overhead metrics.
  meter_->Charge(CpuCategory::kLogging,
                 params_.costs.move_per_word *
                     (static_cast<double>(frame_bytes) / kWordBytes));
  if (m_appends_ != nullptr) {
    m_appends_->Increment();
    m_append_bytes_->Increment(frame_bytes);
  }
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventType::kLogAppend, now, 0.0,
                    static_cast<int64_t>(record->lsn),
                    static_cast<int64_t>(record->type),
                    static_cast<int64_t>(frame_bytes));
  }
  return record->lsn;
}

Lsn LogManager::Append(LogRecord* record, double now, uint32_t stream) {
  if (streams_.size() > 1 && record->type == LogRecordType::kBeginCheckpoint) {
    // Snapshot the per-stream split at the marker's global offset so a
    // later TruncateBefore(this offset) knows where to cut each stream.
    std::vector<uint64_t> split(streams_.size());
    for (size_t k = 0; k < streams_.size(); ++k) {
      split[k] = streams_[k].appended_bytes;
    }
    checkpoint_cuts_[appended_bytes_] = std::move(split);
    while (checkpoint_cuts_.size() > kCheckpointCutsKept) {
      checkpoint_cuts_.erase(checkpoint_cuts_.begin());
    }
  }
  return AppendFrame(record, now, stream);
}

Lsn LogManager::Append(DataRecordView* record, double now, uint32_t stream) {
  return AppendFrame(record, now, stream);
}

std::vector<uint64_t> LogManager::StreamWrittenSnapshot() const {
  std::vector<uint64_t> snap(streams_.size());
  for (size_t k = 0; k < streams_.size(); ++k) {
    snap[k] = streams_[k].written_bytes;
  }
  return snap;
}

void LogManager::FoldLanded(double now) {
  // done_time never decreases along pending_ (a merge finishes no earlier
  // than the batch it joins; a new batch starts after the last one ends),
  // so the landed entries are a prefix. The newest of them is what every
  // durability query at a time >= now reads from the prefix.
  while (!pending_.empty() && pending_.front().done_time <= now) {
    const PendingFlush& f = pending_.front();
    durable_floor_ = f.last_lsn;
    epoch_floor_ = f.epoch;
    for (size_t k = 0; k < streams_.size(); ++k) {
      streams_[k].durable_bytes_floor = f.stream_bytes[k];
    }
    pending_.pop_front();
  }
}

StatusOr<double> LogManager::Flush(double now) {
  FoldLanded(now);
  if (tail_bytes_ == 0) return now;
  if (AnyDamaged()) MMDB_RETURN_IF_ERROR(Repair());
  // One gang batch over every stream's tail: the modeled flush is sized by
  // the COMBINED byte count (a single ceil, never per-stream sums), which
  // keeps the schedule bit-identical to the single-stream log.
  uint64_t words = (tail_bytes_ + kWordBytes - 1) / kWordBytes;
  uint64_t batch_bytes = tail_bytes_;

  // The bytes go to the Env files immediately; Crash() rolls back anything
  // whose modeled completion hadn't been reached. The gang batch lands
  // atomically from the scheduler's point of view: if any stream's append
  // fails, every stream keeps its tail (no durability promise is made for
  // any of them) and every file is repaired before the retry — bytes an
  // earlier stream did take were never promised and are cut back then.
  for (Stream& s : streams_) {
    if (s.tail.empty()) continue;
    Status st = s.file->Append(s.tail);
    if (!st.ok()) {
      for (Stream& d : streams_) d.damaged = true;
      if (m_flush_errors_ != nullptr) m_flush_errors_->Increment();
      if (tracer_ != nullptr) {
        tracer_->Record(TraceEventType::kLogFlushError, now, 0.0,
                        static_cast<int64_t>(tail_last_lsn_));
      }
      return st;
    }
  }
  for (Stream& s : streams_) {
    s.written_bytes += s.tail.size();
    s.tail.clear();
  }
  written_bytes_ += tail_bytes_;
  tail_bytes_ = 0;
  flushed_lsn_ = tail_last_lsn_;
  if (m_flush_bytes_ != nullptr) m_flush_bytes_->Increment(batch_bytes);

  if (!pending_.empty() && pending_.back().start_time > now) {
    // Group commit: the previous batch has not started writing yet; this
    // request coalesces into it rather than issuing another seek. Earlier
    // bytes keep their already-promised completion (they stream to the
    // platter first); the merged bytes become durable when the enlarged
    // batch finishes. Recorded as a new immutable entry so no durability
    // promise ever moves — the write-ahead gates depend on that.
    const PendingFlush& batch = pending_.back();
    uint64_t batch_words = batch.words + words;
    double done = std::max(batch.done_time,
                           batch.start_time + FlushSeconds(batch_words));
    flush_busy_seconds_ += done - batch.done_time;
    pending_.push_back(PendingFlush{tail_last_lsn_, batch_words,
                                    batch.start_time, done, batch.epoch,
                                    StreamWrittenSnapshot()});
    if (m_group_merges_ != nullptr) m_group_merges_->Increment();
    if (tracer_ != nullptr) {
      tracer_->Record(TraceEventType::kLogFlush, now, done,
                      static_cast<int64_t>(flushed_lsn_),
                      static_cast<int64_t>(batch_bytes));
    }
    return done;
  }

  // One I/O initiation per physical flush batch.
  meter_->Charge(CpuCategory::kLogging,
                 static_cast<double>(params_.costs.io));
  // Serial stream: a batch starts no sooner than the cadence allows and
  // never before the previous batch finished.
  double start = std::max(now, last_flush_start_ + min_flush_spacing_);
  if (!pending_.empty()) start = std::max(start, pending_.back().done_time);
  last_flush_start_ = start;
  double done = start + FlushSeconds(words);
  flush_busy_seconds_ += done - start;
  ++flush_count_;
  pending_.push_back(PendingFlush{tail_last_lsn_, words, start, done,
                                  ++epoch_seq_, StreamWrittenSnapshot()});
  if (m_flush_batches_ != nullptr) {
    m_flush_batches_->Increment();
    m_flush_seconds_->Record(done - start);
  }
  if (tracer_ != nullptr) {
    tracer_->Record(TraceEventType::kLogFlush, now, done,
                    static_cast<int64_t>(flushed_lsn_),
                    static_cast<int64_t>(batch_bytes));
  }
  return done;
}

Lsn LogManager::DurableLsn(double now) const {
  if (stable_log_tail_) return LastLsn();
  Lsn durable = durable_floor_;
  for (const PendingFlush& f : pending_) {
    if (f.done_time <= now) durable = f.last_lsn;
  }
  return durable;
}

double LogManager::WhenDurable(Lsn lsn, double now) const {
  if (lsn == kInvalidLsn) return now;
  if (stable_log_tail_) return now;
  if (lsn <= durable_floor_) return now;
  for (const PendingFlush& f : pending_) {
    if (f.last_lsn >= lsn) return std::max(now, f.done_time);
  }
  // Still in the tail (or not yet appended): not durable until a future
  // Flush covers it.
  return std::numeric_limits<double>::infinity();
}

uint64_t LogManager::DurableEpoch(double now) const {
  if (stable_log_tail_) return epoch_seq_;
  uint64_t durable = epoch_floor_;
  for (const PendingFlush& f : pending_) {
    if (f.done_time <= now) durable = f.epoch;
  }
  return durable;
}

Status LogManager::Crash(double now) {
  std::vector<uint64_t> surviving(streams_.size());
  for (size_t k = 0; k < streams_.size(); ++k) {
    surviving[k] = streams_[k].durable_bytes_floor;
  }
  if (stable_log_tail_) {
    // Stable RAM: both the flushed prefix and the tails survive. Persist
    // the tails so recovery sees them in the files (cutting any garbage a
    // failed append left in between first).
    if (AnyDamaged()) MMDB_RETURN_IF_ERROR(Repair());
    for (size_t k = 0; k < streams_.size(); ++k) {
      Stream& s = streams_[k];
      if (!s.tail.empty()) {
        MMDB_RETURN_IF_ERROR(s.file->Append(s.tail));
        s.written_bytes += s.tail.size();
        written_bytes_ += s.tail.size();
        tail_bytes_ -= s.tail.size();
        s.tail.clear();
      }
      surviving[k] = s.written_bytes;
    }
  } else {
    for (const PendingFlush& f : pending_) {
      if (f.done_time <= now) surviving = f.stream_bytes;
    }
  }
  for (size_t k = 0; k < streams_.size(); ++k) {
    Stream& s = streams_[k];
    if (s.file != nullptr) {
      MMDB_RETURN_IF_ERROR(s.file->Close());
      s.file.reset();
    }
    std::string contents;
    MMDB_RETURN_IF_ERROR(env_->ReadFileToString(s.path, &contents));
    uint64_t physical_keep =
        kLogFileHeaderBytes +
        (surviving[k] > s.base_offset ? surviving[k] - s.base_offset : 0);
    if (contents.size() > physical_keep) {
      contents.resize(physical_keep);
      MMDB_RETURN_IF_ERROR(PersistRewrite(s.path, contents));
    }
  }
  return Status::OK();
}

StatusOr<uint64_t> LogManager::TruncateBefore(uint64_t cut) {
  if (cut < base_offset_) return uint64_t{0};  // already truncated past it
  if (cut > written_bytes_) {
    return InvalidArgumentError(
        "cannot truncate past the end of the flushed log");
  }
  if (cut == base_offset_) return uint64_t{0};

  // Per-stream cut points. Single stream: the global offset IS the stream
  // offset. Multiple streams: only offsets snapshotted at a
  // begin-checkpoint append can be split; any other cut is skipped
  // (truncation is an optimization, not a correctness requirement).
  std::vector<uint64_t> stream_cuts;
  if (streams_.size() == 1) {
    stream_cuts.push_back(cut);
  } else {
    auto it = checkpoint_cuts_.find(cut);
    if (it == checkpoint_cuts_.end()) return uint64_t{0};
    stream_cuts = it->second;
  }

  // A failed append's trailing garbage must not ride along into the
  // rewritten files.
  if (AnyDamaged()) MMDB_RETURN_IF_ERROR(Repair());

  uint64_t total_dropped = 0;
  for (size_t k = 0; k < streams_.size(); ++k) {
    Stream& s = streams_[k];
    if (stream_cuts[k] <= s.base_offset) continue;
    uint64_t dropped = stream_cuts[k] - s.base_offset;
    std::string contents;
    MMDB_RETURN_IF_ERROR(env_->ReadFileToString(s.path, &contents));
    if (contents.size() < kLogFileHeaderBytes + dropped) {
      return CorruptionError("log file shorter than its truncation point");
    }
    std::string rewritten = EncodeLogFileHeader(stream_cuts[k]);
    rewritten.append(contents, kLogFileHeaderBytes + dropped,
                     contents.size() - kLogFileHeaderBytes - dropped);
    MMDB_RETURN_IF_ERROR(s.file->Close());
    s.file.reset();
    Status rewrite = PersistRewrite(s.path, rewritten);
    // On failure the original file is intact (temp + rename); reopen it so
    // the manager stays usable — truncation is only an optimization and
    // the caller may treat the error as non-fatal.
    MMDB_ASSIGN_OR_RETURN(s.file, env_->NewAppendableFile(s.path));
    MMDB_RETURN_IF_ERROR(rewrite);
    s.base_offset = stream_cuts[k];
    total_dropped += dropped;
    base_offset_ += dropped;
  }
  checkpoint_cuts_.erase(checkpoint_cuts_.begin(),
                         checkpoint_cuts_.upper_bound(cut));
  return total_dropped;
}

}  // namespace mmdb
