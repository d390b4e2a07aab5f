#ifndef MMDB_WAL_LOG_MANAGER_H_
#define MMDB_WAL_LOG_MANAGER_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "env/env.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sim/cost_model.h"
#include "sim/cpu_meter.h"
#include "sim/disk_model.h"
#include "util/status.h"
#include "util/statusor.h"
#include "util/types.h"
#include "wal/log_record.h"

namespace mmdb {

// The REDO log: N per-shard stream files (N == 1 outside sharded engines),
// each with an in-memory tail buffer and an append-only file on the
// (simulated) log disks, sharing ONE global LSN sequence and ONE modeled
// flush schedule.
//
// Sharded layout (DESIGN.md §17). Append(record, now, stream) routes the
// frame to stream `stream`'s tail; LSNs stay globally ordered because the
// engine executes on one virtual clock, so the interleaving of frames
// across streams is by construction LSN-sorted per stream and globally
// mergeable. Flush(now) is an *epoch group commit*: all stream tails are
// handed to the devices as one gang batch, modeled exactly as the legacy
// single-stream batch over the combined byte count — durability (and the
// global durable epoch) always advances across every stream at once, never
// per stream. This is what keeps the modeled flush schedule, and thus
// every modeled stat, bit-identical at any stream count.
//
// Durability model. Append() places a record in a volatile tail and
// assigns its LSN. Flush(now) hands the tails to the log devices, which
// serve flushes as a serial group-commit stream: batches start at least
// `min_flush_spacing` apart and never overlap, and a flush requested while
// the previous batch is still waiting to start simply merges into it
// (exactly how group commit coalesces). Bytes become durable at the
// modeled batch completion time. DurableLsn(now)
// answers the write-ahead tests used by the FUZZYCOPY/2C*/COU* algorithms:
// "have the log records (and commit record) of every update reflected in
// this segment reached the disk yet?"
//
// With `stable_log_tail` (Section 4's stable-RAM scenario) every record is
// durable the moment it is appended, and a crash preserves the tails; this
// is what makes the FASTFUZZY algorithm legal.
//
// Crash semantics: Crash(now) discards whatever would not have survived —
// unflushed tail bytes and gang batches whose modeled completion lies
// after `now` — and rewrites each on-Env stream file to exactly its
// surviving prefix, so recovery reads precisely what a real machine would
// have found.
class LogManager {
 public:
  // `min_flush_spacing` models the group-commit cadence: successive
  // flushes START at least this many seconds apart (a flush requested
  // early is submitted late), bounding the seek load tiny flushes would
  // otherwise put on the log disks. 0 disables the throttle.
  // `num_streams` is the per-shard stream count; stream 0 lives at `path`
  // and stream k > 0 at `path + "." + k` (see StreamPath).
  LogManager(Env* env, std::string path, const SystemParams& params,
             CpuMeter* meter, bool stable_log_tail,
             double min_flush_spacing = 0.0, uint32_t num_streams = 1);

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  // File path of stream `k` under base path `base`: `base` itself for
  // stream 0 (so single-stream layouts are unchanged on disk), else
  // `base.k`.
  static std::string StreamPath(const std::string& base, uint32_t k);

  // Creates (or truncates) every stream file. Must be called before
  // Append.
  Status Open();

  // Reopens existing streams after recovery, keeping each stream's
  // well-formed prefix through logical offset `stream_valid_bytes[k]`
  // (base-inclusive; anything beyond it is cut off) and continuing the
  // global LSN sequence from `next_lsn`. `stream_valid_bytes` must have
  // one entry per stream.
  Status OpenExisting(const std::vector<uint64_t>& stream_valid_bytes,
                      Lsn next_lsn);

  // Single-stream convenience overload (the pre-shard signature).
  Status OpenExisting(uint64_t existing_bytes, Lsn next_lsn);

  // Drops all frames before *global* logical offset `cut` (typically the
  // begin marker of the newest complete checkpoint, which recovery will
  // never scan past). Each stream file is rewritten with its base offset
  // raised, so previously published offsets remain valid. Everything
  // before `cut` must already be durable. Returns the number of bytes
  // reclaimed. With multiple streams the cut must be an offset captured
  // at a begin-checkpoint append (the per-stream split is snapshotted
  // there); other offsets return 0 reclaimed.
  StatusOr<uint64_t> TruncateBefore(uint64_t cut);

  // Global logical offset of the oldest byte still retained (the sum of
  // the per-stream base offsets).
  uint64_t BaseOffset() const { return base_offset_; }
  // Base offset of stream `k` alone.
  uint64_t StreamBaseOffset(uint32_t k) const {
    return streams_[k].base_offset;
  }

  // Appends a record to stream `stream`'s tail; assigns and returns its
  // globally ordered LSN (also stored into record->lsn). Charges log data
  // movement to the CPU meter. `now` is only for the trace timeline
  // (callers without a clock may omit it).
  Lsn Append(LogRecord* record, double now = 0.0, uint32_t stream = 0);
  // The same for an UPDATE or DELTA record whose image stays in the
  // caller's buffer: the commit path logs pending images without copying
  // them into a LogRecord.
  Lsn Append(DataRecordView* record, double now = 0.0, uint32_t stream = 0);

  // Starts writing all buffered tail bytes — every stream's, as one gang
  // batch — to the log disks at time `now`. Returns immediately; the
  // bytes count as durable at the returned completion time. A no-op
  // returning `now` if all tails are empty.
  //
  // On a device error every tail is retained in full (no record is lost
  // from memory and no durability promise is made — a gang batch either
  // lands entirely or not at all), every stream is remembered as possibly
  // holding trailing garbage, and the error is returned so commit callers
  // see that durability did not advance. The next Flush first rewrites
  // the damaged files back to their known-good prefixes, then retries the
  // whole gang batch.
  StatusOr<double> Flush(double now);

  // Highest LSN durable at time `now` (kInvalidLsn if none).
  //
  // Durability queries (DurableLsn, WhenDurable, DurableEpoch, Crash) take
  // a `now` no earlier than that of the latest Flush: each Flush folds the
  // batches that landed by its `now` into the durable floors, so the
  // pending list holds only batches still in flight.
  Lsn DurableLsn(double now) const;

  // Earliest time at which `lsn` is durable: a past time if already
  // durable, the pending flush's completion if in flight, or +infinity if
  // the record is still sitting in an unflushed tail.
  double WhenDurable(Lsn lsn, double now) const;

  // Epoch group commit: every gang flush batch opens a new epoch, and the
  // epoch becomes durable — across ALL streams at once — at the batch's
  // modeled completion. CurrentEpoch() is the epoch of the next batch;
  // DurableEpoch(now) the newest globally durable one (0 if none).
  uint64_t CurrentEpoch() const { return epoch_seq_ + 1; }
  uint64_t DurableEpoch(double now) const;

  // LSN the next Append will receive.
  Lsn NextLsn() const { return next_lsn_; }
  // LSN of the most recently appended record.
  Lsn LastLsn() const { return next_lsn_ - 1; }

  // Global byte offset at which the *next* appended record's frame will
  // start (file bytes + pending tail bytes, summed over streams).
  // Recorded in checkpoint metadata so recovery can seek straight to a
  // begin-checkpoint marker in the LSN-merged log view.
  uint64_t NextOffset() const { return appended_bytes_; }

  uint64_t TailBytes() const { return tail_bytes_; }

  // Flush batches not yet folded into the durable floors: those still in
  // flight at the latest Flush, plus any it issued.
  size_t PendingFlushCount() const { return pending_.size(); }

  // Simulates losing volatile state at time `now`; truncates each on-disk
  // stream file to its durable prefix. Under stable_log_tail the tails
  // survive and are persisted instead. The LogManager is unusable
  // afterwards except for Crash-time queries; recovery opens the files
  // through LogReader::OpenStreams.
  Status Crash(double now);

  // Total words ever appended (for bandwidth accounting).
  uint64_t AppendedWords() const { return appended_bytes_ / kWordBytes; }

  // Number of physical gang-flush batches issued and total seconds the
  // log devices spent serving them (utilization metrics).
  uint64_t FlushCount() const { return flush_count_; }
  double FlushBusySeconds() const { return flush_busy_seconds_; }

  bool stable_log_tail() const { return stable_log_tail_; }

  uint32_t num_streams() const {
    return static_cast<uint32_t>(streams_.size());
  }
  // Per-stream append accounting (record count / framed bytes), for the
  // per-shard breakdown in Engine::DumpMetricsJson.
  uint64_t StreamAppends(uint32_t k) const { return streams_[k].appends; }
  uint64_t StreamAppendBytes(uint32_t k) const {
    return streams_[k].append_bytes;
  }

  // Optional observability sinks (either may be null). Instrument pointers
  // are cached here once; the hot paths then pay one atomic add per event.
  void set_obs(MetricsRegistry* registry, Tracer* tracer);

 private:
  // One per-shard stream: its file, volatile tail, and physical byte
  // accounting. All scheduling state (pending batches, LSNs, durability)
  // is global — a stream holds only what is physically its own.
  struct Stream {
    std::string path;
    std::unique_ptr<WritableFile> file;
    std::string tail;            // encoded frames not yet handed to a flush
    uint64_t written_bytes = 0;  // stream bytes handed to the file
    uint64_t appended_bytes = 0;  // stream framed bytes: written + tail
    uint64_t base_offset = 0;     // stream-local logical base
    uint64_t durable_bytes_floor = 0;  // durable outside pending_
    uint64_t appends = 0;              // records appended to this stream
    uint64_t append_bytes = 0;         // framed bytes ever appended
    // A failed gang append may have left a partial frame in this file;
    // set until Repair() restores the known-good prefix.
    bool damaged = false;
  };

  // Rewrites one stream file atomically (temp file + rename), so a fault
  // mid-rewrite leaves the original — which holds every durable byte —
  // untouched.
  Status PersistRewrite(const std::string& path, const std::string& contents);
  // Cuts trailing garbage left by a failed gang append back to each
  // damaged stream's flushed prefix and reopens the files for appending.
  Status Repair();
  Status RepairStream(Stream* s);
  bool AnyDamaged() const;
  // Both Appends: assigns the LSN, encodes the frame onto the stream's
  // tail, and does the accounting.
  template <typename Record>
  Lsn AppendFrame(Record* record, double now, uint32_t stream);
  // Folds the pending batches whose modeled completion is <= `now` into
  // durable_floor_, epoch_floor_ and each stream's durable_bytes_floor.
  void FoldLanded(double now);

  struct PendingFlush {
    Lsn last_lsn;         // highest LSN contained in this flush
    uint64_t words;       // payload size
    double start_time;    // when the devices begin writing it
    double done_time;     // modeled completion time
    uint64_t epoch;       // gang batch index (group merges share it)
    // Per-stream written_bytes once this flush lands (crash truncation
    // boundary per stream).
    std::vector<uint64_t> stream_bytes;
  };

  // Service time of one flush of `words` striped across the log disks.
  double FlushSeconds(uint64_t words) const {
    return params_.disk.seek_seconds +
           params_.disk.transfer_seconds_per_word *
               static_cast<double>(words) / params_.disk.num_log_disks;
  }

  std::vector<uint64_t> StreamWrittenSnapshot() const;

  Env* env_;
  std::string path_;
  SystemParams params_;
  CpuMeter* meter_;
  bool stable_log_tail_;

  std::vector<Stream> streams_;

  Lsn next_lsn_ = 1;
  Lsn tail_last_lsn_ = kInvalidLsn;
  uint64_t tail_bytes_ = 0;      // unflushed bytes, summed over streams
  uint64_t written_bytes_ = 0;   // bytes handed to files (flushes issued)
  uint64_t appended_bytes_ = 0;  // total framed bytes: written + tails
  std::deque<PendingFlush> pending_;
  Lsn flushed_lsn_ = kInvalidLsn;  // highest LSN handed to a file
  uint64_t base_offset_ = 0;  // sum of per-stream logical base offsets
  uint64_t flush_count_ = 0;
  uint64_t epoch_seq_ = 0;  // gang batches opened so far
  uint64_t epoch_floor_ = 0;  // newest epoch durable outside pending_
  double flush_busy_seconds_ = 0.0;
  double min_flush_spacing_;
  double last_flush_start_ = -1e300;
  // Highest LSN known durable without consulting pending_: the recovered
  // prefix after OpenExisting, raised as landed batches are folded.
  Lsn durable_floor_ = kInvalidLsn;

  // Per-stream appended_bytes snapshots taken when a begin-checkpoint
  // marker is appended, keyed by the marker's global offset — the only
  // global offsets TruncateBefore is ever called with. Bounded to the
  // most recent kCheckpointCutsKept entries; maintained only when
  // num_streams > 1 (the single-stream path needs no split).
  static constexpr size_t kCheckpointCutsKept = 8;
  std::map<uint64_t, std::vector<uint64_t>> checkpoint_cuts_;

  Tracer* tracer_ = nullptr;
  Counter* m_appends_ = nullptr;
  Counter* m_append_bytes_ = nullptr;
  Counter* m_flush_batches_ = nullptr;
  Counter* m_flush_bytes_ = nullptr;
  Counter* m_flush_errors_ = nullptr;
  Counter* m_group_merges_ = nullptr;
  Timer* m_flush_seconds_ = nullptr;
};

// Framing shared with LogReader: [u32 len][payload][u32 masked-crc][u32 len].
inline constexpr size_t kLogFrameOverhead = 12;

// Log files begin with a fixed header carrying the *base offset*: the
// logical byte offset of the first frame in the file. Truncating the log
// prefix (TruncateBefore) raises the base instead of renumbering, so
// offsets stored in checkpoint metadata stay valid forever.
// Layout: [u32 magic][u32 version][u64 base_offset].
inline constexpr uint32_t kLogFileMagic = 0x4d4d4c47;  // "MMLG"
inline constexpr uint32_t kLogFileVersion = 1;
inline constexpr size_t kLogFileHeaderBytes = 16;

// Appends one framed record to *dst.
void EncodeLogFrame(const LogRecord& record, std::string* dst);

// The 16-byte log-file header (shared with LogReader::OpenStreams, which
// synthesizes a merged single-log view from N stream files).
std::string EncodeLogFileHeader(uint64_t base_offset);

}  // namespace mmdb

#endif  // MMDB_WAL_LOG_MANAGER_H_
