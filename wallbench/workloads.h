#ifndef WALLBENCH_WORKLOADS_H_
#define WALLBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "metrics.h"
#include "util/status.h"

namespace wallbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for PosixEnv workloads (created, then removed).
  std::string dir;
  // Where a traced run writes its spans (Chrome trace JSON); empty: none.
  std::string trace_out;
};

struct RunResult {
  MetricSet metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Human-readable lines (settings, sample counts, self-time table).
  std::string report;
};

// Names accepted by RunWorkload, in the order BENCHMARK.json lists them.
inline constexpr std::string_view kWorkloads[] = {"oltp_uniform",
                                                  "ckpt_cou_zipf", "restart"};

// Runs one workload. A non-OK status means the run could not be carried
// out (bad arguments, engine failed to open); operation failures and
// oracle mismatches are counted in RunResult::failed instead.
mmdb::Status RunWorkload(const RunArgs& args, RunResult* result);

}  // namespace wallbench

#endif  // WALLBENCH_WORKLOADS_H_
