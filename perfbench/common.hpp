// Small helpers shared by the benchmark driver and its layer probes: a wall
// clock, order statistics and the metric sink the driver prints from.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary fixed origin (steady, process-wide).
inline double now_s() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 when
/// the sample is empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
  double value = 0;
  std::string unit;
};

/// Ordered name -> metric map; the driver prints it as the result's
/// "metrics" object.
using Metrics = std::map<std::string, Metric>;

}  // namespace perfbench
