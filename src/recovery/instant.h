#ifndef MMDB_RECOVERY_INSTANT_H_
#define MMDB_RECOVERY_INSTANT_H_

#include <cstdint>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "backup/backup_store.h"
#include "recovery/recovery_manager.h"
#include "sim/disk_model.h"
#include "storage/database.h"
#include "util/status.h"
#include "util/types.h"

namespace mmdb {

// Materializes segments against an InstantRecoveryPlan (DESIGN.md §19):
// the one mechanism behind both restart schedules. It owns the modeled
// backup disk array for the restart and decides, per segment, WHEN its
// backup reload completes on the virtual timeline (the schedule) and WHAT
// bytes it holds afterwards (materialization). The two are deliberately
// orthogonal:
//
//   - MATERIALIZATION moves the actual bytes and consumes no virtual time:
//     the plan already charged the replay CPU and computed the phase
//     durations in closed form. It works in batches, each in two phases
//     over the same chunks (RecoveryManager::FanOut). Phase 1 reads every
//     segment of the batch from the backup copy its lineage names and
//     collects every CRC or I/O failure; if any failed, the older-copy
//     fallback runs once with the whole failed set. Phase 2 replays each
//     segment's frame bucket. Buckets are per-segment log-order frame
//     lists, so one segment's replay never depends on another's and
//     batches may come in any order. A batch that no transaction waits on
//     (MaterializeAll, and every batch once CompleteSchedule has run: the
//     drain) fans out over the planner's thread pool. While the instant
//     schedule serves transactions, batches run inline on the engine
//     thread: a stalled transaction then waits the same time whatever the
//     host's idle cores, as the serving window's latency should.
//
//   - The SCHEDULE picks the batches. The blocking schedule is one batch
//     of every segment (MaterializeAll) before the engine admits anything.
//     The instant schedule is pure virtual-clock arithmetic on the same
//     disk array: StartClock submits the first `num_disks` segment reads
//     at the restart instant, each completion immediately submits the next
//     pending segment in access-priority order (observed touch count
//     descending, then ascending segment id), and Touch() queue-jumps an
//     unsubmitted segment to the front. Because every device is kept busy
//     until the pending set drains, the LAST completion lands exactly at
//     restart + backup_read_seconds regardless of the order in between.
//     The engine batches whatever is touched (Touch + Materialize) or due
//     (MaterializeDue after an AdvanceTime, and DrainRecovery).
//
// Under the instant schedule each segment's load is journaled
// (recovery.segment_on_demand) and traced serially in batch order, so
// `order` fields and dumps are deterministic. The outcome events
// (recovery.fallback, recovery.lineage, recovery.end) and the registry
// and trace summary are emitted from here once per recovery, stamped with
// the crash instant under both schedules.
class InstantRecovery {
 public:
  // Why a segment is being materialized, journaled per segment in the
  // recovery.segment_on_demand audit event and the trace.
  enum class LoadTrigger : uint8_t {
    kTouch = 0,       // a transaction touched it (admission stall)
    kBackground = 1,  // its scheduled background reload completed
    kForce = 2,       // diagnostic raw read (no clock movement)
  };

  // `planner` supplies the parameters, the thread pool and the
  // observability sinks. `backup` and `db` are borrowed and must outlive
  // this object.
  InstantRecovery(InstantRecoveryPlan plan, const RecoveryManager& planner,
                  BackupStore* backup, Database* db);

  // Starts the instant schedule at virtual time `now` (the clock position
  // right after OpenExisting returns): submits the first window of
  // background reloads. Cold start (no checkpoint) makes every segment
  // available immediately at `now`.
  void StartClock(double now);

  // Records a transaction touch of `s` (raising its background priority)
  // and returns the virtual time at which the segment's bytes are
  // available: `now` if already recovered (or cold start), otherwise the
  // completion time of its backup read — queue-jump submitted at `now`
  // if the schedule had not reached it yet. The caller stalls the
  // transaction until the returned time (the recovery_wait cause) and
  // then calls Materialize.
  double Touch(SegmentId s, double now);

  // Loads the not-yet-loaded segments of `segs` (distinct ids) NOW as one
  // batch. A fallback widens the batch to every segment not yet loaded:
  // the failed set must be complete, as blocking recovery sees it, before
  // the restore source can change. Idempotent per segment; `now` only
  // stamps the on-demand events. An error is fatal to the restart
  // (neither copy readable) and every later call returns it.
  Status Materialize(std::span<const SegmentId> segs, double now,
                     LoadTrigger trigger);

  // Materializes every segment whose scheduled background reload has
  // completed by `now`. Called from the engine's AdvanceTime sweep.
  Status MaterializeDue(double now);

  // The blocking schedule: every segment in one batch.
  Status MaterializeAll();

  // Runs the remaining schedule to completion and returns the virtual
  // time of the last reload (== start + backup_read_seconds). Does NOT
  // materialize; the caller advances its clock there and then calls
  // MaterializeDue. Idempotent.
  double CompleteSchedule();

  // Publishes the registry counters and phase trace events and journals
  // recovery.lineage and recovery.end, all at the crash instant. Call
  // once, after AllLoaded().
  void Finish();

  bool AllLoaded() const { return loaded_count_ == num_segments_; }
  uint64_t pending_segments() const { return num_segments_ - loaded_count_; }
  bool fell_back() const { return fell_back_; }
  double start_time() const { return start_; }

  // Live views of the plan's result; a fallback refines stats/lineage.
  const RecoveryResult& result() const { return plan_.result; }
  const RecoveryStats& stats() const { return plan_.result.stats; }

  // On-demand load counters for the engine's availability accounting.
  uint64_t touch_loads() const { return touch_loads_; }
  uint64_t background_loads() const { return background_loads_; }
  uint64_t force_loads() const { return force_loads_; }

 private:
  struct SegmentFailure {
    SegmentId segment;
    Status status;
  };

  // Pops schedule completions up to `t`, refilling each freed device with
  // the highest-priority pending segment.
  void AdvanceScheduleTo(double t);
  // Submits segment `s`'s backup read at `at`; records its availability.
  void SubmitSegment(SegmentId s, double at);
  // Highest-priority unsubmitted segment (touch count desc, id asc), or
  // num_segments_ when none remain.
  SegmentId PickNextPending() const;

  // Phase 1: reads each of `ids` from the copy its lineage names into the
  // primary, in parallel. Failures are collected in `ids` order, not
  // failed fast, so the outcome is independent of worker scheduling.
  Status ReadSegments(const std::vector<SegmentId>& ids,
                      std::vector<SegmentFailure>* failures);
  // The older-copy fallback, once per restart, given the failed reads of
  // `batch`: completes the failed set over the segments not yet loaded,
  // widening `batch` to all of them; restores the previous checkpoint's
  // copy for the failed set (for the whole batch when the longer suffix
  // holds DELTA records); and re-plans the replay from that checkpoint's
  // begin marker.
  Status FallBack(std::vector<SegmentFailure> failures,
                  std::vector<SegmentId>* batch);
  // Phase 2: replays each of `ids`'s frame bucket, in parallel.
  Status ReplaySegments(const std::vector<SegmentId>& ids);
  // Journals and traces `s`'s load (instant schedule only).
  void Announce(SegmentId s, LoadTrigger trigger, double now);

  InstantRecoveryPlan plan_;
  const RecoveryManager planner_;
  BackupStore* backup_;
  Database* db_;

  SegmentId num_segments_ = 0;
  double start_ = 0.0;
  bool clock_started_ = false;  // the instant schedule is running
  // Transactions are admitted and wait on each batch: from a warm
  // StartClock until CompleteSchedule. Batches then run inline on the
  // engine thread (see the class comment).
  bool serving_ = false;
  double last_completion_ = 0.0;  // max availability ever scheduled

  // The restart's backup array: same parameters, fresh state — the array
  // the modeled backup phase assumes.
  DiskArrayModel disks_;

  // Per-segment state. availability_ < 0 = not yet submitted.
  std::vector<double> availability_;
  std::vector<double> submit_time_;
  std::vector<uint64_t> touch_count_;
  std::vector<bool> loaded_;
  SegmentId loaded_count_ = 0;
  uint64_t unsubmitted_ = 0;

  // Min-heap of (completion time, segment) for in-flight reloads.
  using Inflight = std::pair<double, SegmentId>;
  std::priority_queue<Inflight, std::vector<Inflight>, std::greater<Inflight>>
      inflight_;
  // Segments whose reload completed (or was queue-jumped) but which may
  // not be materialized yet — MaterializeDue's work list.
  std::vector<SegmentId> due_;

  bool fell_back_ = false;
  // First fatal materialization error; sticky.
  Status failed_;

  uint64_t load_order_ = 0;  // materialization ordinal (first-load order)
  uint64_t touch_loads_ = 0;
  uint64_t background_loads_ = 0;
  uint64_t force_loads_ = 0;
};

}  // namespace mmdb

#endif  // MMDB_RECOVERY_INSTANT_H_
