#include "runtime/kernels.hpp"

#include <cmath>

namespace mimd {

double initial_value(NodeId v) { return 0.5 * (static_cast<double>(v) + 1.0); }

double synthetic_value(const Ddg& g, NodeId v, std::int64_t iter,
                       const std::vector<double>& operands,
                       const KernelOptions& opts) {
  // Fold operands in fixed in-edge order; scale and wrap to keep values
  // bounded (and therefore exactly reproducible — no overflow to inf).
  double acc = static_cast<double>(g.node(v).latency) +
               0.001 * static_cast<double>(v) +
               1e-6 * static_cast<double>(iter % 1024);
  for (const double x : operands) {
    acc = 0.5 * acc + 0.25 * x + 0.125;
  }
  if (acc > 4.0) acc -= 4.0;

  // Optional real work, proportional to the node's latency: models the
  // paper's guidance that node granularity should be chosen so execution
  // time is within the same order of magnitude as communication cost.
  if (opts.work_per_cycle > 0) {
    double w = acc;
    const int spins = opts.work_per_cycle * g.node(v).latency;
    for (int s = 0; s < spins; ++s) {
      w = w * 0.999999 + 1e-9;
    }
    // Fold the (value-preserving) work back in so it cannot be elided.
    acc += (w - w);  // == 0, but data-dependent on the loop above
    acc += 0.0 * w;
  }
  return acc;
}

}  // namespace mimd
