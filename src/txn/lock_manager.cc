#include "txn/lock_manager.h"

#include "util/string_util.h"

namespace mmdb {

LockManager::LockManager(uint32_t stripes, uint64_t records_per_segment)
    : records_per_segment_(records_per_segment) {
  if (stripes == 0) stripes = 1;
  stripes_.reserve(stripes);
  for (uint32_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

bool LockManager::Sharers::contains(TxnId txn) const {
  for (size_t i = 0; i < count_; ++i) {
    if (at(i) == txn) return true;
  }
  return false;
}

void LockManager::Sharers::push_back(TxnId txn) {
  if (count_ < kInline) {
    inline_[count_] = txn;
  } else {
    overflow_.push_back(txn);
  }
  ++count_;
}

void LockManager::Sharers::erase(TxnId txn) {
  // Order among sharers carries no meaning: move the last holder into the
  // freed slot.
  for (size_t i = 0; i < count_; ++i) {
    if (at(i) != txn) continue;
    at(i) = at(count_ - 1);
    if (count_ > kInline) overflow_.pop_back();
    --count_;
    return;
  }
}

Status LockManager::Acquire(TxnId txn, RecordId record, Mode mode) {
  Stripe& stripe = StripeOf(record);
  Status s;
  {
    std::lock_guard<std::mutex> lock(stripe.mu);
    s = AcquireImpl(stripe, txn, record, mode);
  }
  if (m_acquires_ != nullptr) {
    if (s.ok()) {
      m_acquires_->Increment();
    } else {
      m_conflicts_->Increment();
    }
  }
  return s;
}

Status LockManager::AcquireImpl(Stripe& stripe, TxnId txn, RecordId record,
                                Mode mode) {
  Entry& e = stripe.table[record];
  const bool held_shared = e.shared.contains(txn);
  if (mode == Mode::kShared) {
    if (e.exclusive != kInvalidTxnId && e.exclusive != txn) {
      return AbortedError(StringPrintf(
          "record %llu exclusively locked by txn %llu",
          static_cast<unsigned long long>(record),
          static_cast<unsigned long long>(e.exclusive)));
    }
    if (e.exclusive == txn) return Status::OK();  // Already stronger.
    if (!held_shared) e.shared.push_back(txn);
    return Status::OK();
  }
  // Exclusive request.
  if (e.exclusive != kInvalidTxnId) {
    if (e.exclusive == txn) return Status::OK();
    return AbortedError(StringPrintf(
        "record %llu exclusively locked by txn %llu",
        static_cast<unsigned long long>(record),
        static_cast<unsigned long long>(e.exclusive)));
  }
  // Upgrade allowed only if this txn is the sole sharer.
  if (!e.shared.empty() && !(e.shared.size() == 1 && held_shared)) {
    return AbortedError(StringPrintf(
        "record %llu share-locked by another transaction",
        static_cast<unsigned long long>(record)));
  }
  e.shared.clear();
  e.exclusive = txn;
  return Status::OK();
}

void LockManager::ReleaseAll(TxnId txn, const std::vector<RecordId>& records) {
  for (RecordId r : records) {
    Stripe& stripe = StripeOf(r);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.table.find(r);
    if (it == stripe.table.end()) continue;
    Entry& e = it->second;
    if (e.exclusive == txn) e.exclusive = kInvalidTxnId;
    e.shared.erase(txn);
    if (e.exclusive == kInvalidTxnId && e.shared.empty()) {
      stripe.table.erase(it);
    }
  }
}

bool LockManager::IsLocked(RecordId record) const {
  const Stripe& stripe = StripeOf(record);
  std::lock_guard<std::mutex> lock(stripe.mu);
  return stripe.table.count(record) > 0;
}

bool LockManager::Holds(TxnId txn, RecordId record, Mode mode) const {
  const Stripe& stripe = StripeOf(record);
  std::lock_guard<std::mutex> lock(stripe.mu);
  auto it = stripe.table.find(record);
  if (it == stripe.table.end()) return false;
  const Entry& e = it->second;
  if (e.exclusive == txn) return true;
  return mode == Mode::kShared && e.shared.contains(txn);
}

size_t LockManager::num_locked_records() const {
  size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    total += stripe->table.size();
  }
  return total;
}

void LockManager::Clear() {
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stripe->table.clear();
  }
}

}  // namespace mmdb
