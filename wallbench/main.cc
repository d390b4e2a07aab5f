// wallbench: wall-clock benchmark of the engine's commit path under
// checkpointing and of its restart. See README.md for the workloads and
// the definition of every metric.
//
//   wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--dir <scratch dir>] [--trace-out <spans.json>]
//   wallbench --list-metrics
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "metrics.h"
#include "util/json.h"
#include "workloads.h"

namespace {

// Environment variables that would silently change what is measured.
constexpr const char* kPinnedVars[] = {"MMDB_RECOVERY_THREADS", "MMDB_SHARDS",
                                       "MMDB_INSTANT_RECOVERY",
                                       "MMDB_TRACE_CAPACITY"};

int Usage(const char* msg) {
  std::fprintf(stderr,
               "wallbench: %s\nusage: wallbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--dir <d>] [--trace-out <f>]\n"
               "       wallbench --list-metrics\n",
               msg);
  return 2;
}

bool ParseUint(const char* s, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0' && s[0] != '-';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wallbench;
  RunArgs args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const MetricDef& d : kEndToEnd) {
        std::printf("end_to_end %s %s\n", d.name.data(), d.unit.data());
      }
      for (const MetricDef& d : kPerLayer) {
        std::printf("per_layer %s %s\n", d.name.data(), d.unit.data());
      }
      for (std::string_view w : kWorkloads) {
        std::printf("workload %s\n", std::string(w).c_str());
      }
      return 0;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    unsigned long long n = 0;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!ParseUint(value, &n)) return Usage("--seed takes an integer");
      args.seed = n;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUint(value, &n) || n == 0 || n > 600) {
        return Usage("--seconds takes an integer in [1, 600]");
      }
      args.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
      have_trace = true;
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  for (const char* var : kPinnedVars) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "wallbench: %s is set; it overrides the engine settings "
                   "this benchmark pins. Unset it and rerun.\n",
                   var);
      return 2;
    }
  }

  RunResult result;
  mmdb::Status st = RunWorkload(args, &result);
  if (!st.ok()) {
    std::fprintf(stderr, "wallbench: %s\n", st.ToString().c_str());
    return 1;
  }
  const std::span<const MetricDef> defs =
      args.trace ? std::span<const MetricDef>(kPerLayer)
                 : std::span<const MetricDef>(kEndToEnd);
  const std::string missing = result.metrics.Missing(defs);
  if (!missing.empty()) {
    std::fprintf(stderr, "wallbench: metrics not produced: %s\n",
                 missing.c_str());
    return 1;
  }
  std::fputs(result.report.c_str(), stdout);
  std::printf("metrics (%s):\n%s", args.trace ? "per layer" : "end to end",
              result.metrics.ToText(defs).c_str());
  mmdb::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(result.failed == 0);
  w.Key("attempted");
  w.Uint(result.attempted);
  w.Key("failed");
  w.Uint(result.failed);
  w.Key("metrics");
  w.RawValue(result.metrics.ToJson(defs));
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
