// Order statistics for the campaign benchmark's reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace campaign_bench {

/// Nearest-rank percentile: the smallest sample with at least q% of the
/// samples at or below it (q in (0, 100]). Throws on an empty sample.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of nothing");
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(n)));
  return n - std::min(rank, n);
}

/// The tail percentile a sample of n supports: the higher of p75 and p50
/// with at least ten samples beyond it; below 20 samples no level
/// qualifies and the median stands in (0 signals that). Capped at p75:
/// on a shared host, busy spells stretch the slowest tenth of campaigns
/// the most, and across ten runs of one workload the p90 spread reached
/// 0.34 of its median where the p50 spread was 0.18.
inline double tail_level(std::size_t n) {
  for (double q : {75.0, 50.0}) {
    if (samples_beyond(n, q) >= 10) return q;
  }
  return 0.0;
}

/// Percentile at tail_level(n), or the median when no tail qualifies.
inline double tail(const std::vector<double>& samples) {
  const double q = tail_level(samples.size());
  return percentile(samples, q > 0 ? q : 50.0);
}

inline double median(const std::vector<double>& samples) {
  return percentile(samples, 50.0);
}

}  // namespace campaign_bench
