// Lowering: from a (combined, finite-N) Schedule to the per-processor
// PartitionedProgram with explicit sends and receives — the step the
// paper's Figures 7(e)/10 perform by hand ("synchronization code
// inserted").
//
// Placement rules:
//  * ops appear on their processor in start-time order;
//  * a Send is inserted immediately after the producing Compute, one per
//    cross-processor consumer instance present in the schedule;
//  * a Receive is inserted immediately before the consuming Compute, one
//    per cross-processor operand.
//
// These rules are also the accepted program shape: compile_program
// (partition/compiled_program.hpp) checks every program against them —
// each value sent from the PE that computed it, each receive consumed by
// one later Compute in channel order, each instance computed once — and
// rejects anything else, including receive-then-forward.
#pragma once

#include "graph/ddg.hpp"
#include "partition/partitioned_loop.hpp"
#include "schedule/schedule.hpp"

namespace mimd {

PartitionedProgram lower(const Schedule& sched, const Ddg& g);

}  // namespace mimd
