// The partitioned loop: what the compiler actually emits for each
// processor of the MIMD machine — a sequence of compute / send / receive
// operations (the paper's Figures 7(e) and 10 show the source-level
// rendering of exactly this structure).
//
// Communication is point-to-point and FIFO per channel, where a channel is
// identified by (dependence edge, source processor, destination
// processor).  A value is identified by its producing instance.
//
// Not every op sequence is a program: compile_program
// (partition/compiled_program.hpp) accepts exactly the shape lower()
// emits (partition/lowering.hpp) and rejects the rest with
// ContractViolation.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/ddg.hpp"

namespace mimd {

struct Op {
  enum class Kind : std::uint8_t { Compute, Send, Receive };
  Kind kind = Kind::Compute;
  /// Compute: the instance executed.  Send/Receive: the *producing*
  /// instance whose value crosses processors.
  Inst inst;
  /// Send/Receive: which dependence edge the value serves.
  EdgeId edge = 0;
  /// Send: destination processor.  Receive: source processor.
  int peer = -1;

  friend bool operator==(const Op&, const Op&) = default;
};

struct ProcessorProgram {
  int proc = 0;
  std::vector<Op> ops;

  friend bool operator==(const ProcessorProgram&,
                         const ProcessorProgram&) = default;
};

struct PartitionedProgram {
  int processors = 0;
  std::vector<ProcessorProgram> programs;  ///< one per processor, index == proc

  [[nodiscard]] std::size_t total_ops() const;
  [[nodiscard]] std::size_t count(Op::Kind k) const;

  /// Structural equality — the collision guard behind PlanCache's hashed
  /// lookup (runtime/plan_cache.hpp).
  friend bool operator==(const PartitionedProgram&,
                         const PartitionedProgram&) = default;
};

}  // namespace mimd
