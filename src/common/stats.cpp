#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/strings.hpp"

namespace vdce::common {

void Stats::add(double sample) {
  samples_.push_back(sample);
  sum_ += sample;
}

double Stats::mean() const {
  if (samples_.empty()) return 0.0;
  return sum_ / static_cast<double>(samples_.size());
}

double Stats::stddev() const {
  if (samples_.size() < 2) return 0.0;
  double m = mean();
  double acc = 0.0;
  for (double s : samples_) acc += (s - m) * (s - m);
  return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double Stats::min() const {
  if (samples_.empty()) return 0.0;
  return *std::min_element(samples_.begin(), samples_.end());
}

double Stats::max() const {
  if (samples_.empty()) return 0.0;
  return *std::max_element(samples_.begin(), samples_.end());
}

double Stats::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  assert(p >= 0.0 && p <= 100.0);
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  if (p <= 0.0) return sorted.front();
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::min(std::max<std::size_t>(rank, 1), sorted.size());
  return sorted[rank - 1];
}

std::string Stats::summary(int precision) const {
  if (empty()) return "n=0";
  return "n=" + std::to_string(count()) +
         " mean=" + format_double(mean(), precision) +
         " sd=" + format_double(stddev(), precision) +
         " min=" + format_double(min(), precision) +
         " p50=" + format_double(percentile(50), precision) +
         " p99=" + format_double(percentile(99), precision) +
         " max=" + format_double(max(), precision);
}

}  // namespace vdce::common
