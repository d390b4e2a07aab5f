#ifndef MMDB_TXN_LOCK_MANAGER_H_
#define MMDB_TXN_LOCK_MANAGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics_registry.h"
#include "util/status.h"
#include "util/types.h"

namespace mmdb {

// Record-granularity shared/exclusive lock table with no-wait conflict
// resolution: a conflicting request fails immediately with ABORTED instead
// of blocking, which keeps the single-threaded engine deadlock-free. The
// caller (TxnManager) retries the whole transaction, mirroring how the
// paper's model treats transaction restarts.
//
// Striping (DESIGN.md §17). The table is split into `stripes` independent
// hash tables, each under its own mutex, keyed by segment
// (record / records_per_segment) so each engine shard's segment range maps
// to its own stripe set and shards>1 never funnels through one lock. The
// default single stripe takes the same uncontended-mutex fast path; the
// lock protocol, grant/conflict outcomes, and metrics are identical at any
// stripe count, so the modeled engine is stripe-count-invariant.
//
// Cost note: record locking is part of the transaction's base cost C_trans
// in the paper's model, so LockManager charges no instructions; only
// checkpoint-induced synchronization is metered (by the checkpointers).
class LockManager {
 public:
  enum class Mode : uint8_t { kShared, kExclusive };

  // `stripes` internal partitions (>= 1); `records_per_segment` maps a
  // record to its segment for stripe selection (0 stripes by raw record
  // id — only sensible in unit tests).
  explicit LockManager(uint32_t stripes = 1,
                       uint64_t records_per_segment = 0);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  // Grants or upgrades a lock for `txn`; ABORTED on conflict with another
  // transaction. Re-acquiring an already-held lock (same or weaker mode)
  // succeeds.
  Status Acquire(TxnId txn, RecordId record, Mode mode);

  // Releases every lock `txn` holds on `records` (missing entries are
  // ignored, so callers can pass their full access list).
  void ReleaseAll(TxnId txn, const std::vector<RecordId>& records);

  // True if any transaction holds a lock on `record`.
  bool IsLocked(RecordId record) const;
  // True if `txn` holds at least `mode` on `record`.
  bool Holds(TxnId txn, RecordId record, Mode mode) const;

  size_t num_locked_records() const;

  uint32_t num_stripes() const {
    return static_cast<uint32_t>(stripes_.size());
  }

  void Clear();

  // Optional metrics sink (may be null): counts grants and no-wait
  // conflicts.
  void set_obs(MetricsRegistry* registry) {
    if (registry == nullptr) return;
    m_acquires_ = registry->counter("lock.acquires");
    m_conflicts_ = registry->counter("lock.conflicts");
  }

 private:
  // The share holders of one record. The first two live inline, so the
  // common cases (one reader, or a reader beside one more) allocate
  // nothing; further sharers spill to a heap list.
  class Sharers {
   public:
    bool empty() const { return count_ == 0; }
    size_t size() const { return count_; }
    bool contains(TxnId txn) const;
    void push_back(TxnId txn);
    void erase(TxnId txn);
    void clear() {
      count_ = 0;
      overflow_.clear();
    }

   private:
    TxnId& at(size_t i) {
      return i < kInline ? inline_[i] : overflow_[i - kInline];
    }
    const TxnId& at(size_t i) const {
      return i < kInline ? inline_[i] : overflow_[i - kInline];
    }

    static constexpr size_t kInline = 2;
    TxnId inline_[kInline] = {kInvalidTxnId, kInvalidTxnId};
    size_t count_ = 0;
    std::vector<TxnId> overflow_;  // holders past the inline slots
  };

  struct Entry {
    // Exclusive holder, or kInvalidTxnId if the lock is shared/free.
    TxnId exclusive = kInvalidTxnId;
    Sharers shared;
  };

  // One independently locked partition of the table. unique_ptr keeps the
  // stripe array stable (mutex is neither movable nor copyable).
  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<RecordId, Entry> table;
  };

  Stripe& StripeOf(RecordId record) {
    return *stripes_[StripeIndex(record)];
  }
  const Stripe& StripeOf(RecordId record) const {
    return *stripes_[StripeIndex(record)];
  }
  size_t StripeIndex(RecordId record) const {
    uint64_t key = records_per_segment_ != 0
                       ? record / records_per_segment_
                       : record;
    return static_cast<size_t>(key % stripes_.size());
  }

  static Status AcquireImpl(Stripe& stripe, TxnId txn, RecordId record,
                            Mode mode);

  std::vector<std::unique_ptr<Stripe>> stripes_;
  uint64_t records_per_segment_;
  Counter* m_acquires_ = nullptr;
  Counter* m_conflicts_ = nullptr;
};

}  // namespace mmdb

#endif  // MMDB_TXN_LOCK_MANAGER_H_
