#ifndef MMDB_TXN_TRANSACTION_H_
#define MMDB_TXN_TRANSACTION_H_

#include <cstdint>
#include <map>
#include <utility>
#include <string>
#include <vector>

#include "util/types.h"

namespace mmdb {

enum class TxnState : uint8_t {
  kActive,
  kCommitted,
  kAborted,
};

// Why the last ABORTED status was returned for this transaction. Lock
// conflicts and two-color violations surface as the same ABORTED Status
// code, so the TxnManager tags the transaction at the failure point and
// retry drivers read the tag to attribute the retry latency to its cause.
enum class TxnAbortCause : uint8_t {
  kNone,
  kLockConflict,    // no-wait lock table conflict
  kColorViolation,  // two-color constraint (checkpoint-induced)
};

// A transaction under the paper's shadow-copy update scheme (Section 2.6):
// writes are buffered privately in `pending` and installed into the primary
// database only at commit, so no UNDO information is ever needed. REDO log
// records for the updates plus a commit record are emitted as one group at
// commit time.
//
// Created by TxnManager::Begin and owned by the TxnManager until Commit or
// Abort retires it.
struct Transaction {
  TxnId id = kInvalidTxnId;
  Timestamp start_ts = 0;  // tau(T)
  TxnState state = TxnState::kActive;
  double begin_time = 0.0;

  // Deferred full-image updates: one entry per written record, each
  // pointing at its record_bytes-long image in `pending_images`. A rewrite
  // overwrites the image in place. Commit sorts the entries by record, so
  // the UPDATE frames are logged in record order.
  struct PendingWrite {
    RecordId record;
    size_t offset;  // into pending_images
  };
  std::vector<PendingWrite> pending;
  std::string pending_images;

  // Deferred logical (delta) operations: accumulated signed additions to
  // 8-byte fields, keyed by (record, byte offset). Logged as compact
  // kDelta records instead of after-images. A record may not receive both
  // a full-image write and deltas within one transaction.
  std::map<std::pair<RecordId, uint32_t>, int64_t> pending_deltas;

  // Records read or written, for lock release.
  std::vector<RecordId> locked_records;

  // Distinct segments read or written, in first-touch order. The two-color
  // admission test evaluates this set against the current paint bits.
  std::vector<SegmentId> touched_segments;

  // 1 on the first execution attempt; incremented by checkpoint-induced
  // restarts (simulation path).
  int attempt = 1;

  // Set by the TxnManager when Read/Write/WriteDelta return ABORTED.
  TxnAbortCause abort_cause = TxnAbortCause::kNone;

  size_t num_updates() const { return pending.size() + pending_deltas.size(); }

  // The pending full-image write to `record`, or nullptr.
  const PendingWrite* FindPending(RecordId record) const {
    for (const PendingWrite& w : pending) {
      if (w.record == record) return &w;
    }
    return nullptr;
  }
};

}  // namespace mmdb

#endif  // MMDB_TXN_TRANSACTION_H_
