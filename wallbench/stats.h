#ifndef WALLBENCH_STATS_H_
#define WALLBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wallbench {

// Nearest-rank percentile of `samples` (0 < p <= 100): the smallest sample
// with at least p% of the samples at or below it. Reorders `samples`.
// Returns 0 for an empty set.
double Percentile(std::vector<double>& samples, double p);

double Median(std::vector<double> samples);

// Mean of the middle half of `samples` (the interquartile mean; with fewer
// than four samples, of all of them). As robust to a few outliers as the
// median, but it moves smoothly when the samples fall into two modes,
// where the median jumps from one mode to the other. Returns 0 for an
// empty set.
double InterquartileMean(std::vector<double> samples);

// Samples strictly beyond the nearest-rank p-th percentile of n samples.
size_t SamplesBeyond(size_t n, double p);

// The reporting rule for a tail percentile: it is printed only when at
// least this many samples lie beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

// Fewest samples for which SamplesBeyond(n, p) >= kMinSamplesBeyond.
size_t MinSamplesFor(double p);

// Peak resident set size of this process so far (VmHWM), in MiB.
double PeakRssMiB();

// Monotonic wall clock in nanoseconds.
int64_t NowNs();

}  // namespace wallbench

#endif  // WALLBENCH_STATS_H_
