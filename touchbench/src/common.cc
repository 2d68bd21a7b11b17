#include "common.h"

#include <cmath>

namespace touchbench {

dbtouch::obs::HistogramSnapshot HistDelta(
    const dbtouch::obs::HistogramSnapshot& after,
    const dbtouch::obs::HistogramSnapshot& before) {
  dbtouch::obs::HistogramSnapshot d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  d.buckets = after.buckets;
  for (std::size_t i = 0; i < d.buckets.size() && i < before.buckets.size();
       ++i) {
    d.buckets[i] -= before.buckets[i];
  }
  // Extremes of the window are unknown; bound them by the buckets used so
  // Percentile's clamp keeps bucket lower bounds.
  d.min = 0;
  d.max = 0;
  for (std::size_t i = d.buckets.size(); i-- > 0;) {
    if (d.buckets[i] > 0) {
      d.max = dbtouch::obs::Histogram::BucketLowerBound(i + 1);
      break;
    }
  }
  return d;
}

double Quantile(const dbtouch::obs::HistogramSnapshot& h, double p) {
  using dbtouch::obs::Histogram;
  if (h.count <= 0) return 0.0;
  const auto rank = std::max<std::int64_t>(
      1,
      static_cast<std::int64_t>(std::ceil(p * static_cast<double>(h.count))));
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const std::int64_t n = h.buckets[i];
    if (n <= 0 || seen + n < rank) {
      seen += std::max<std::int64_t>(n, 0);
      continue;
    }
    const auto lo = static_cast<double>(Histogram::BucketLowerBound(i));
    const auto hi = static_cast<double>(Histogram::BucketLowerBound(i + 1));
    return lo + (hi - lo) * (static_cast<double>(rank - seen) - 0.5) /
                    static_cast<double>(n);
  }
  return static_cast<double>(h.max);
}

double MedianOf(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

}  // namespace touchbench
