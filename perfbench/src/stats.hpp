// Sample statistics for benchmark reports: median, tail percentiles that
// refuse to extrapolate, and the geometric mean used for ratio metrics.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.  A p99
/// therefore needs >= 1000 samples and a p90 >= 100: a tail percentile
/// read off fewer points is one or two outliers, not a distribution.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (q in (0, 1)): the value at 1-based rank
/// ceil(q * n) of the sorted samples.  nullopt unless at least
/// kMinSamplesBeyond samples rank above it.
[[nodiscard]] std::optional<double> percentile(std::vector<double> samples,
                                               double q);

/// Middle value (mean of the two middle values for an even count) of any
/// non-empty sample set — for small sets such as repeated set-ups, where
/// percentile() would refuse.  Throws std::invalid_argument when empty.
[[nodiscard]] double median(std::vector<double> samples);

/// exp(mean(log x)).  Throws std::invalid_argument when empty or when a
/// value is not strictly positive.
[[nodiscard]] double geomean(const std::vector<double>& values);

}  // namespace perfbench
