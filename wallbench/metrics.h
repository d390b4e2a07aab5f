#ifndef WALLBENCH_METRICS_H_
#define WALLBENCH_METRICS_H_

#include <map>
#include <span>
#include <string>
#include <string_view>

namespace wallbench {

struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

// Printed by an untraced run (--trace 0). BENCHMARK.json lists the same
// names; wallbench_test.py checks that they agree.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"txn_per_s", "txn/s"},
    {"txn_p50_us", "us"},      {"txn_p99_us", "us"},
    {"restart_s", "s"},        {"first_txn_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// Printed by a traced run (--trace 1), named after the src/ module whose
// calls they measure.
inline constexpr MetricDef kPerLayer[] = {
    {"txn.commit_us", "us"},
    {"txn.write_us", "us"},
    {"txn.read_us", "us"},
    {"txn.stalled_calls", "count"},
    {"txn.stall_us", "us"},
    {"txn.attempts_per_commit", "ratio"},
    {"wal.bytes_per_commit", "B"},
    {"wal.flushes", "count"},
    {"wal.write_s", "s"},
    {"core.advance_s", "s"},
    {"core.advance_share", "ratio"},
    {"core.advance_self_s", "s"},
    {"checkpoint.ms_per_ckpt", "ms"},
    {"checkpoint.start_us", "us"},
    {"checkpoint.segments_flushed_per_ckpt", "count"},
    {"checkpoint.cou_copies_per_ckpt", "count"},
    {"backup.write_bytes_per_ckpt", "B"},
    {"backup.write_s", "s"},
    {"backup.read_s", "s"},
    {"backup.read_mb_per_s", "MiB/s"},
    {"env.wal.read_ops", "count"},
    {"env.wal.read_bytes", "B"},
    {"env.wal.read_s", "s"},
    {"env.wal.write_ops", "count"},
    {"env.wal.write_bytes", "B"},
    {"env.wal.write_s", "s"},
    {"env.wal.sync_ops", "count"},
    {"env.backup.read_ops", "count"},
    {"env.backup.read_bytes", "B"},
    {"env.backup.read_s", "s"},
    {"env.backup.write_ops", "count"},
    {"env.backup.write_bytes", "B"},
    {"env.backup.write_s", "s"},
    {"env.backup.sync_ops", "count"},
    {"env.meta.read_ops", "count"},
    {"env.meta.read_bytes", "B"},
    {"env.meta.read_s", "s"},
    {"env.meta.write_ops", "count"},
    {"env.meta.write_bytes", "B"},
    {"env.meta.write_s", "s"},
    {"env.meta.sync_ops", "count"},
    {"env.audit.read_ops", "count"},
    {"env.audit.read_bytes", "B"},
    {"env.audit.read_s", "s"},
    {"env.audit.write_ops", "count"},
    {"env.audit.write_bytes", "B"},
    {"env.audit.write_s", "s"},
    {"env.audit.sync_ops", "count"},
    {"obs.audit_bytes", "B"},
    {"obs.audit_write_s", "s"},
    {"recovery.backup_reload_s", "s"},
    {"recovery.log_scan_s", "s"},
    {"recovery.replay_s", "s"},
    {"recovery.plan_s", "s"},
    {"recovery.drain_s", "s"},
    {"recovery.log_bytes_read", "B"},
    {"recovery.segments_loaded", "count"},
    {"parallel.threads_used", "count"},
    {"parallel.busy_imbalance", "ratio"},
    {"trace.overhead_share", "ratio"},
    {"trace.spans", "count"},
};

// Values by metric name, rendered in the order of a definition table.
class MetricSet {
 public:
  void Set(std::string_view name, double value) {
    values_[std::string(name)] = value;
  }
  // Names in `defs` that were never Set (empty when complete).
  std::string Missing(std::span<const MetricDef> defs) const;
  // {"name": {"value": v, "unit": "u"}, ...} over `defs`.
  std::string ToJson(std::span<const MetricDef> defs) const;
  // One "name value unit" line per metric of `defs`.
  std::string ToText(std::span<const MetricDef> defs) const;

 private:
  std::map<std::string, double> values_;
};

}  // namespace wallbench

#endif  // WALLBENCH_METRICS_H_
