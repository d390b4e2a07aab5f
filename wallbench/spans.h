#ifndef WALLBENCH_SPANS_H_
#define WALLBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/status.h"

namespace wallbench {

// One timed interval. `parent` indexes the span's batch (-1: a root).
struct Span {
  uint32_t name = 0;
  int32_t parent = -1;
  uint64_t txn = 0;  // shared by every span of one transaction
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Self time of each span: its duration minus the part of its interval that
// its direct children cover. Children may overlap (file reads issued from
// several recovery threads under one engine call), so the covered part is
// the union of their intervals, clipped to the parent.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

// In-memory span recorder for the benchmark's traced run.
//
// The engine thread opens and closes strictly nested spans around its
// calls into the engine. Any thread may add a leaf span (a file
// operation); its parent is the engine-thread span open at that moment.
// Spans are buffered until Fold(), which adds them to per-name totals
// (count, wall, self time) and keeps the first `keep_cap` spans for
// WriteChromeTrace. Fold only while no span is open and no other thread
// is recording.
class SpanRecorder {
 public:
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  explicit SpanRecorder(size_t keep_cap);

  uint32_t Intern(std::string_view name);
  const std::string& name(uint32_t id) const { return names_[id]; }

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  void set_txn(uint64_t txn) { txn_.store(txn, std::memory_order_relaxed); }

  // Engine thread only.
  int32_t Open(uint32_t name, int64_t start_ns);
  void Close(int32_t span, int64_t end_ns);

  // Any thread.
  void Leaf(uint32_t name, int64_t start_ns, int64_t end_ns);

  void Fold();

  // Totals by interned name id (names never seen have count 0).
  const std::vector<Totals>& totals() const { return totals_; }
  const Totals& totals(uint32_t name) const;
  uint64_t spans_recorded() const { return recorded_; }

  // Chrome trace_event JSON ("X" events; args carry the span id, parent
  // id and transaction id), readable by Perfetto and chrome://tracing.
  mmdb::Status WriteChromeTrace(const std::string& path) const;

 private:
  uint32_t ThreadSlot();

  const size_t keep_cap_;
  const std::thread::id owner_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> txn_{0};
  std::vector<std::string> names_;

  // Engine-thread buffer and its stack of open spans.
  std::vector<Span> batch_;
  std::vector<int32_t> open_;
  // Innermost open engine-thread span, read by other threads' leaves.
  std::atomic<int32_t> current_{-1};

  std::mutex side_mu_;
  std::vector<Span> side_;  // guarded by side_mu_
  std::atomic<uint32_t> next_thread_{1};

  std::vector<Totals> totals_;
  std::vector<Span> kept_;  // parents re-indexed into kept_
  uint64_t recorded_ = 0;
};

// Opens a span on construction and closes it on destruction; does
// nothing when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, uint32_t name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int32_t span_ = -1;
};

}  // namespace wallbench

#endif  // WALLBENCH_SPANS_H_
