#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// 0-based nearest-rank index of the pct-th percentile of n samples.
size_t RankIndex(size_t n, double pct) {
  auto rank =
      static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  return rank == 0 ? 0 : rank - 1;
}

}  // namespace

std::optional<double> Percentile(std::vector<double> samples, double pct) {
  if (samples.empty() || pct <= 0 || pct >= 100) return std::nullopt;
  size_t idx = RankIndex(samples.size(), pct);
  if (samples.size() - 1 - idx < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

int HighestSupportedPercentile(size_t n) {
  for (int pct : {99, 95, 90, 75, 50}) {
    if (n > 0 && n - 1 - RankIndex(n, pct) >= kMinSamplesBeyond) return pct;
  }
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace perfbench
