// Simulated asynchronous MIMD multiprocessor (Section 4's experimental
// substrate).
//
// Each processor executes its PartitionedProgram in order.  Compute ops
// take their node latency; sends are fully overlapped (zero processor
// cycles — the message departs at the producer's finish time); receives
// block until the matching message has been delivered.  The run-time cost
// of each message is the compile-time cost of its edge plus a jitter term
// controlled by the paper's varying factor mm:
//   * WorstCase  — every message takes base + (mm - 1) cycles, the paper's
//     Table-1 regime ("at run time all communication takes k+mm-1 cycles,
//     clearly a worst case scenario");
//   * Uniform    — per-message cost uniform in [base, base + mm - 1],
//     deterministic under `seed` (the "fluctuation" reading of Section 4).
// mm = 1 reproduces the compile-time estimates exactly.
#pragma once

#include <cstdint>

#include "graph/ddg.hpp"
#include "partition/partitioned_loop.hpp"
#include "schedule/machine.hpp"
#include "sim/trace.hpp"

namespace mimd {

enum class JitterMode { WorstCase, Uniform };

struct SimOptions {
  Machine machine;  ///< supplies the compile-time comm costs (k)
  int mm = 1;       ///< varying factor; run-time cost in [k, k+mm-1]
  JitterMode jitter = JitterMode::WorstCase;
  std::uint64_t seed = 1;  ///< per-message jitter stream (Uniform mode)
};

struct SimResult {
  std::int64_t makespan = 0;
  std::int64_t messages = 0;
  std::int64_t compute_cycles = 0;  ///< sum of busy cycles over processors
};

/// Execute `prog` on the simulated machine.  Throws ContractViolation on
/// deadlock (a receive whose message can never arrive), which a well-formed
/// program (one compile_program accepts) cannot produce.
SimResult simulate(const PartitionedProgram& prog, const Ddg& g,
                   const SimOptions& opts, Trace* trace = nullptr);

}  // namespace mimd
