#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

std::optional<double> percentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q < 1.0)) {
    throw std::invalid_argument("percentile: q must lie in (0, 1)");
  }
  const std::size_t n = samples.size();
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0 || n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median: no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("geomean: no values");
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) {
      throw std::invalid_argument("geomean: values must be positive");
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench
