#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace wallbench {

namespace {
// Index of the nearest-rank percentile in a sorted array of n > 0 items.
size_t RankIndex(size_t n, double p) {
  double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  if (rank < 1.0) rank = 1.0;
  return std::min(n, static_cast<size_t>(rank)) - 1;
}
}  // namespace

double Percentile(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t k = RankIndex(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

double Median(std::vector<double> samples) { return Percentile(samples, 50); }

double InterquartileMean(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t cut = samples.size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i < samples.size() - cut; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * cut);
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - RankIndex(n, p);
}

size_t MinSamplesFor(double p) {
  size_t n = 1;
  while (SamplesBeyond(n, p) < kMinSamplesBeyond) ++n;
  return n;
}

double PeakRssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace wallbench
