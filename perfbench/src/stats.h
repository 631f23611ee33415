// Sample statistics for the benchmark: nearest-rank percentiles that refuse
// to report a tail the sample cannot support.

#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it in one run; otherwise the name must use a lower one.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Latency recorded for an operation that failed or was refused: it misses
/// every latency limit, so it sorts above every measured value.
inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

/// Nearest-rank `pct`-th percentile (0 < pct < 100) of `samples`, or nullopt
/// when fewer than kMinSamplesBeyond samples lie beyond it.
std::optional<double> Percentile(std::vector<double> samples, double pct);

/// The highest of 99, 95, 90, 75 and 50 that `n` samples support, or 0.
int HighestSupportedPercentile(size_t n);

/// Plain median (mean of the middle two for even sizes); 0 when empty.
double Median(std::vector<double> values);

}  // namespace perfbench
