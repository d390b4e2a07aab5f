#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "stats.h"
#include "util/json.h"

namespace wallbench {

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<int32_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size()) {
      children[p].push_back(static_cast<int32_t>(i));
    }
  }
  std::vector<int64_t> self(spans.size());
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (int32_t c : children[i]) {
      const int64_t a = std::max(spans[c].start_ns, s.start_ns);
      const int64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_a = 0, run_b = 0;
    bool in_run = false;
    for (const auto& [a, b] : iv) {
      if (in_run && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (in_run) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      in_run = true;
    }
    if (in_run) covered += run_b - run_a;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

namespace {
// Chrome trace thread id of the calling thread: 0 for the engine thread,
// 1.. for others in order of first use.
thread_local uint32_t tls_thread_slot = 0;
thread_local bool tls_thread_slot_set = false;
}  // namespace

SpanRecorder::SpanRecorder(size_t keep_cap)
    : keep_cap_(keep_cap), owner_(std::this_thread::get_id()) {}

uint32_t SpanRecorder::Intern(std::string_view name) {
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<uint32_t>(names_.size() - 1);
}

const SpanRecorder::Totals& SpanRecorder::totals(uint32_t name) const {
  return totals_[name];
}

uint32_t SpanRecorder::ThreadSlot() {
  if (std::this_thread::get_id() == owner_) return 0;
  if (!tls_thread_slot_set) {
    tls_thread_slot = next_thread_.fetch_add(1, std::memory_order_relaxed);
    tls_thread_slot_set = true;
  }
  return tls_thread_slot;
}

int32_t SpanRecorder::Open(uint32_t name, int64_t start_ns) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.txn = txn_.load(std::memory_order_relaxed);
  s.start_ns = start_ns;
  s.end_ns = start_ns;
  const int32_t idx = static_cast<int32_t>(batch_.size());
  batch_.push_back(s);
  open_.push_back(idx);
  current_.store(idx, std::memory_order_release);
  return idx;
}

void SpanRecorder::Close(int32_t span, int64_t end_ns) {
  batch_[span].end_ns = end_ns;
  // Spans close in LIFO order on the engine thread.
  if (!open_.empty() && open_.back() == span) open_.pop_back();
  current_.store(open_.empty() ? -1 : open_.back(),
                 std::memory_order_release);
}

void SpanRecorder::Leaf(uint32_t name, int64_t start_ns, int64_t end_ns) {
  Span s;
  s.name = name;
  s.txn = txn_.load(std::memory_order_relaxed);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.thread = ThreadSlot();
  if (s.thread == 0) {
    s.parent = open_.empty() ? -1 : open_.back();
    batch_.push_back(s);
    return;
  }
  s.parent = current_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(side_mu_);
  side_.push_back(s);
}

void SpanRecorder::Fold() {
  {
    std::lock_guard<std::mutex> lock(side_mu_);
    batch_.insert(batch_.end(), side_.begin(), side_.end());
    side_.clear();
  }
  const std::vector<int64_t> self = SelfTimes(batch_);
  for (size_t i = 0; i < batch_.size(); ++i) {
    Totals& t = totals_[batch_[i].name];
    ++t.count;
    t.total_ns += batch_[i].end_ns - batch_[i].start_ns;
    t.self_ns += self[i];
  }
  const int32_t base = static_cast<int32_t>(kept_.size());
  for (size_t i = 0; i < batch_.size() && kept_.size() < keep_cap_; ++i) {
    Span s = batch_[i];
    if (s.parent >= 0) s.parent += base;
    kept_.push_back(s);
  }
  recorded_ += batch_.size();
  batch_.clear();
  open_.clear();
  current_.store(-1, std::memory_order_release);
}

mmdb::Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  const int64_t t0 = kept_.empty() ? 0 : kept_.front().start_ns;
  mmdb::JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.String("ns");
  w.Key("traceEvents");
  w.BeginArray();
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    w.BeginObject();
    w.Key("name");
    w.String(names_[s.name]);
    w.Key("ph");
    w.String("X");
    w.Key("pid");
    w.Uint(1);
    w.Key("tid");
    w.Uint(s.thread);
    w.Key("ts");
    w.Double(static_cast<double>(s.start_ns - t0) / 1e3);
    w.Key("dur");
    w.Double(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    w.Key("args");
    w.BeginObject();
    w.Key("id");
    w.Uint(i);
    w.Key("parent");
    w.Int(s.parent);
    w.Key("txn");
    w.Uint(s.txn);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (f == nullptr) return mmdb::IoError("cannot write " + path);
  if (std::fwrite(w.str().data(), 1, w.str().size(), f.get()) !=
      w.str().size()) {
    return mmdb::IoError("write failed: " + path);
  }
  return mmdb::Status::OK();
}

ScopedSpan::ScopedSpan(SpanRecorder* rec, uint32_t name) : rec_(rec) {
  if (rec_->enabled()) span_ = rec_->Open(name, NowNs());
}

ScopedSpan::~ScopedSpan() {
  if (span_ >= 0) rec_->Close(span_, NowNs());
}

}  // namespace wallbench
