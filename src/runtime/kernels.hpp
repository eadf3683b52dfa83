// Numeric semantics for loop nodes, so partitioned schedules can be
// *executed* (not just simulated) and their results validated against
// sequential execution.
//
// The default "synthetic" kernel gives every DDG a deterministic meaning:
//   value(v, i) = combine(latency-scaled seed of v, i, operand values in
//                         in-edge order)
// Because operands are always folded in the graph's fixed in-edge order,
// any correct execution order — sequential, simulated, threaded — produces
// bit-identical results; a race or a mis-routed message changes them.
//
// `work` adds a tunable amount of real floating-point work per latency
// cycle so thread-level speedups are measurable on real hardware.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/ddg.hpp"

namespace mimd {

struct KernelOptions {
  /// Iterations of the inner flop loop per latency cycle (coarsens grain).
  int work_per_cycle = 0;
};

/// Deterministic synthetic node function shared by all executors.
double synthetic_value(const Ddg& g, NodeId v, std::int64_t iter,
                       const std::vector<double>& operands,
                       const KernelOptions& opts);

/// Initial (pre-loop) value of a node, used for operands that reach back
/// before iteration 0: 0.5 * (node id + 1).
double initial_value(NodeId v);

}  // namespace mimd
