// The compiled executor: compile() -> ExecutorPlan -> run(), against the
// bit-for-bit sequential oracle.  Tests named "...BothTransports" predate
// the removal of the mutex transport and now run the SPSC rings only.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>

#include "partition/compiled_program.hpp"
#include "partition/lowering.hpp"
#include "runtime/executor.hpp"
#include "schedule/cyclic_sched.hpp"
#include "schedule/full_sched.hpp"
#include "support/assert.hpp"
#include "support/loop_gen.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/random_loops.hpp"

namespace mimd {
namespace {

PartitionedProgram fig7_program(const Ddg& g, std::int64_t n) {
  const Machine m{2, 2};
  const CyclicSchedResult r = cyclic_sched(g, m);
  EXPECT_TRUE(r.pattern.has_value());
  return lower(materialize(*r.pattern, m.processors, n), g);
}

void expect_equal_values(const ExecutionResult& a, const ExecutionResult& b,
                         std::int64_t n) {
  ASSERT_EQ(a.nodes, b.nodes);
  for (std::size_t v = 0; v < b.nodes; ++v) {
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(a.at(v, i), b.at(v, i))
          << "node " << v << " iter " << i;
    }
  }
}

// ---- Compilation: name resolution happens at lowering time. ----

TEST(CompiledProgram, ResolvesChannelsDenselyAndFusesReceives) {
  const Ddg g = workloads::fig7_loop();
  const PartitionedProgram p = fig7_program(g, 20);
  const CompiledProgram cp = compile_program(p, g);

  EXPECT_EQ(cp.processors, p.processors);
  EXPECT_EQ(cp.iterations, 20);
  // Every Compute survives; every Send keeps its channel; every Receive
  // becomes a ChannelRecv operand of its consumer (counted below).
  EXPECT_EQ(cp.count(CompiledOp::Kind::Compute), p.count(Op::Kind::Compute));
  EXPECT_EQ(cp.count(CompiledOp::Kind::Send), p.count(Op::Kind::Send));

  // Dense channel table: one entry per distinct (edge, src, dst), message
  // counts summing to the program's sends.
  EXPECT_GT(cp.channels.size(), 0u);
  std::int64_t messages = 0;
  for (const ChannelDesc& c : cp.channels) {
    EXPECT_GE(c.messages, 1);
    messages += c.messages;
  }
  EXPECT_EQ(static_cast<std::size_t>(messages), p.count(Op::Kind::Send));

  // ChannelRecv operands reference valid channels; exactly as many as the
  // interpreted program had receives.
  std::size_t recv_operands = 0;
  for (const CompiledThread& t : cp.threads) {
    for (const OperandRef& r : t.operands) {
      if (r.kind == OperandRef::Kind::ChannelRecv) {
        EXPECT_LT(r.index, cp.channels.size());
        ++recv_operands;
      }
    }
  }
  EXPECT_EQ(recv_operands, p.count(Op::Kind::Receive));
}

TEST(CompiledProgram, SlotArraysAreDenseAndInBounds) {
  const Ddg g = workloads::cytron86_loop();
  const FullSchedResult r = full_sched(g, Machine{8, 2}, 16);
  const CompiledProgram cp = compile_program(lower(r.schedule, g), g);
  for (const CompiledThread& t : cp.threads) {
    EXPECT_FALSE(t.ops.empty());
    std::uint32_t writes = 0;
    for (const CompiledOp& op : t.ops) {
      if (op.kind == CompiledOp::Kind::Send) continue;
      EXPECT_LT(op.slot, t.num_slots);
      ++writes;
    }
    // Liveness reuse: at most one slot per compute, usually far fewer;
    // num_slots_ssa records the pre-reuse count.
    EXPECT_LE(t.num_slots, writes);
    EXPECT_EQ(t.num_slots_ssa, writes);
    for (const OperandRef& ref : t.operands) {
      if (ref.kind == OperandRef::Kind::LocalSlot) {
        EXPECT_LT(ref.index, t.num_slots);
      }
    }
  }
}

// ---- The validator gates compilation. ----

TEST(CompiledProgram, RejectsComputeBeforeOperand) {
  const Ddg g = workloads::fig7_loop();
  PartitionedProgram p;
  p.processors = 1;
  p.programs.resize(1);
  p.programs[0].proc = 0;
  p.programs[0].ops.push_back(
      Op{Op::Kind::Compute, Inst{*g.find("B"), 0}, 0, -1});
  EXPECT_THROW((void)compile_program(p, g), ContractViolation);
  EXPECT_THROW((void)compile(p, g), ContractViolation);
}

TEST(CompiledProgram, RejectsUnmatchedSend) {
  const Ddg g = workloads::fig7_loop();
  PartitionedProgram p;
  p.processors = 2;
  p.programs.resize(2);
  p.programs[0].proc = 0;
  p.programs[1].proc = 1;
  const NodeId a = *g.find("A");
  const EdgeId ab = g.out_edges(a)[0];
  p.programs[0].ops.push_back(Op{Op::Kind::Compute, Inst{a, 0}, 0, -1});
  p.programs[0].ops.push_back(Op{Op::Kind::Send, Inst{a, 0}, ab, 1});
  EXPECT_THROW((void)compile_program(p, g), ContractViolation);
}

TEST(CompiledProgram, RejectsFifoInversion) {
  Ddg g;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B");
  g.add_edge(a, b, 0);
  const EdgeId e = 0;
  PartitionedProgram p;
  p.processors = 2;
  p.programs.resize(2);
  p.programs[0].proc = 0;
  p.programs[1].proc = 1;
  auto& s0 = p.programs[0].ops;
  auto& s1 = p.programs[1].ops;
  s0.push_back(Op{Op::Kind::Compute, Inst{a, 0}, 0, -1});
  s0.push_back(Op{Op::Kind::Send, Inst{a, 0}, e, 1});
  s0.push_back(Op{Op::Kind::Compute, Inst{a, 1}, 0, -1});
  s0.push_back(Op{Op::Kind::Send, Inst{a, 1}, e, 1});
  s1.push_back(Op{Op::Kind::Receive, Inst{a, 1}, e, 0});  // inverted
  s1.push_back(Op{Op::Kind::Compute, Inst{b, 1}, 0, -1});
  s1.push_back(Op{Op::Kind::Receive, Inst{a, 0}, e, 0});
  s1.push_back(Op{Op::Kind::Compute, Inst{b, 0}, 0, -1});
  EXPECT_THROW((void)compile_program(p, g), ContractViolation);
}

// A -> B at distance 0: the smallest graph with a cross-PE operand.
Ddg pair_graph() {
  Ddg g;
  g.add_node("A");
  g.add_node("B");
  g.add_edge(0u, 1u, 0);
  return g;
}

PartitionedProgram empty_program(int procs) {
  PartitionedProgram p;
  p.processors = procs;
  p.programs.resize(static_cast<std::size_t>(procs));
  for (int i = 0; i < procs; ++i) {
    p.programs[static_cast<std::size_t>(i)].proc = i;
  }
  return p;
}

Op compute(NodeId v, std::int64_t i) {
  return Op{Op::Kind::Compute, Inst{v, i}, 0, -1};
}
Op send(NodeId v, std::int64_t i, int to) {
  return Op{Op::Kind::Send, Inst{v, i}, 0, to};
}
Op receive(NodeId v, std::int64_t i, int from) {
  return Op{Op::Kind::Receive, Inst{v, i}, 0, from};
}

/// compile_program's rejection message, or "" if it accepts `p`.
std::string rejection(const PartitionedProgram& p, const Ddg& g) {
  try {
    (void)compile_program(p, g);
  } catch (const ContractViolation& e) {
    return e.what();
  }
  return "";
}

TEST(CompiledProgram, RejectsReceiveThenForward) {
  // PE1 relays A@0 from PE0 to PE2 without computing it: a value is only
  // ever sent by the PE that computed it.
  const Ddg g = pair_graph();
  PartitionedProgram p = empty_program(3);
  p.programs[0].ops = {compute(0, 0), send(0, 0, 1)};
  p.programs[1].ops = {receive(0, 0, 0), send(0, 0, 2)};
  p.programs[2].ops = {receive(0, 0, 1), compute(1, 0)};
  EXPECT_NE(rejection(p, g).find("before it is computed"), std::string::npos)
      << rejection(p, g);
}

TEST(CompiledProgram, RejectsUnconsumedReceive) {
  const Ddg g = pair_graph();
  PartitionedProgram p = empty_program(2);
  p.programs[0].ops = {compute(0, 0), send(0, 0, 1), compute(1, 0)};
  p.programs[1].ops = {receive(0, 0, 0)};
  EXPECT_NE(rejection(p, g).find("never consumed"), std::string::npos)
      << rejection(p, g);
}

TEST(CompiledProgram, RejectsOutOfOrderConsumption) {
  // Sends and receives agree on the channel order, but B@1 consumes A@1
  // while the older A@0 is still pending.
  const Ddg g = pair_graph();
  PartitionedProgram p = empty_program(2);
  p.programs[0].ops = {compute(0, 0), send(0, 0, 1), compute(0, 1),
                       send(0, 1, 1)};
  p.programs[1].ops = {receive(0, 0, 0), receive(0, 1, 0), compute(1, 1),
                       compute(1, 0)};
  EXPECT_NE(rejection(p, g).find("out of channel order"), std::string::npos)
      << rejection(p, g);
}

TEST(CompiledProgram, RejectsNegativeIteration) {
  // Every operand of A@-100000000 is a pre-loop initial value, so only the
  // iteration check stands between this program and an out-of-bounds
  // result write.
  const Ddg g = pair_graph();
  PartitionedProgram p = empty_program(1);
  p.programs[0].ops = {compute(0, -100000000)};
  EXPECT_NE(rejection(p, g).find("out-of-range iteration"), std::string::npos)
      << rejection(p, g);
}

TEST(CompiledProgram, RejectsDuplicateCompute) {
  const Ddg g = pair_graph();
  PartitionedProgram p = empty_program(2);
  p.programs[0].ops = {compute(0, 0), compute(1, 0)};
  p.programs[1].ops = {compute(0, 0)};
  EXPECT_NE(rejection(p, g).find("duplicates"), std::string::npos)
      << rejection(p, g);
}

TEST(CompiledProgram, RejectsIncompleteIterationSpace) {
  // A@0..2 and B@0, B@2: B@1 would be a silent zero in the result.
  const Ddg g = pair_graph();
  PartitionedProgram p = empty_program(1);
  p.programs[0].ops = {compute(0, 0), compute(1, 0), compute(0, 1),
                       compute(0, 2), compute(1, 2)};
  EXPECT_NE(rejection(p, g).find("instances"), std::string::npos)
      << rejection(p, g);
}

TEST(CompiledProgram, RejectsProgramsNotIndexedByProcessor) {
  const Ddg g = pair_graph();
  PartitionedProgram p = empty_program(2);
  p.programs[1].proc = 0;  // two threads claiming PE0 would share rings
  p.programs[0].ops = {compute(0, 0)};
  p.programs[1].ops = {compute(1, 0)};
  EXPECT_NE(rejection(p, g).find("indexed by PE"), std::string::npos)
      << rejection(p, g);
}

TEST(CompiledProgram, RejectsCrossPeDeadlock) {
  // A -> B at distance 0, B -> A at distance 1, n = 2.  Every channel is
  // matched and FIFO, every operand is available in program order, yet
  // PE0 waits for B@0 before it sends A@0, and PE1 needs A@0 to compute
  // B@0: each PE waits on the other forever.
  Ddg g;
  const NodeId a = g.add_node("A");
  const NodeId b = g.add_node("B");
  const EdgeId ab = g.add_edge(a, b, 0);
  const EdgeId ba = g.add_edge(b, a, 1);
  PartitionedProgram p = empty_program(2);
  p.programs[0].ops = {compute(a, 0),
                       Op{Op::Kind::Receive, Inst{b, 0}, ba, 1},
                       compute(a, 1),
                       Op{Op::Kind::Send, Inst{a, 0}, ab, 1},
                       Op{Op::Kind::Send, Inst{a, 1}, ab, 1}};
  p.programs[1].ops = {Op{Op::Kind::Receive, Inst{a, 0}, ab, 0},
                       compute(b, 0),
                       Op{Op::Kind::Send, Inst{b, 0}, ba, 0},
                       Op{Op::Kind::Receive, Inst{a, 1}, ab, 0},
                       compute(b, 1)};
  EXPECT_NE(rejection(p, g).find("deadlock"), std::string::npos)
      << rejection(p, g);

  // Sending A@0 before waiting on B@0 breaks the cycle: same ops, and
  // the program compiles and runs bit-exact.
  std::swap(p.programs[0].ops[1], p.programs[0].ops[3]);
  std::swap(p.programs[0].ops[2], p.programs[0].ops[3]);
  ASSERT_EQ(rejection(p, g), "");
  expect_equal_values(compile(p, g).run(2), run_reference(g, 2), 2);
}

/// One random single-op mutation of `p`: shift an iteration, drop,
/// duplicate or swap (with its successor) an op, or retarget a send or
/// receive at another processor.  Swaps stay adjacent: lowering never puts
/// a Send right before a Compute that waits on a channel, so an adjacent
/// swap cannot build a cross-PE wait cycle (compile_program's dry run
/// rejects one; RejectsCrossPeDeadlock pins that).
PartitionedProgram mutate(PartitionedProgram p, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (;;) {
    ProcessorProgram& prog = p.programs[pick(p.programs.size())];
    if (prog.ops.size() < 2) continue;
    auto& ops = prog.ops;
    const std::size_t i = pick(ops.size());
    switch (pick(5)) {
      case 0:
        ops[i].inst.iter += pick(2) == 0 ? -1 : 1;
        return p;
      case 1:
        ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
        return p;
      case 2: {
        const Op dup = ops[i];
        ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(i), dup);
        return p;
      }
      case 3:
        if (i + 1 == ops.size()) continue;
        std::swap(ops[i], ops[i + 1]);
        return p;
      default:
        if (ops[i].kind == Op::Kind::Compute) continue;
        ops[i].peer = static_cast<int>(
            (static_cast<std::size_t>(ops[i].peer) + 1 +
             pick(static_cast<std::size_t>(p.processors))) %
            static_cast<std::size_t>(p.processors + 1));
        return p;
    }
  }
}

TEST(CompiledProgram, MutantsAreRejectedOrRunBitExact) {
  // 200 single-op mutants of generated programs: each must be rejected
  // with ContractViolation or run bit-identical to run_reference —
  // never crash, never race, never leave a result entry unwritten.
  std::mt19937_64 rng(14);
  int rejected = 0;
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const testsupport::GeneratedLoop gl = testsupport::generate_loop(seed);
    for (int m = 0; m < 20; ++m) {
      const PartitionedProgram mutant = mutate(gl.program, rng);
      ExecutorPlan plan;
      try {
        plan = compile(mutant, gl.graph);
      } catch (const ContractViolation&) {
        ++rejected;
        continue;
      }
      ++accepted;
      const std::int64_t n = plan.program().iterations;
      SCOPED_TRACE(gl.tag + " mutant " + std::to_string(m));
      expect_equal_values(plan.run(n), run_reference(gl.graph, n), n);
    }
  }
  RecordProperty("rejected", rejected);
  RecordProperty("accepted", accepted);
  // Both outcomes occur: most mutants break the shape, but swapping two
  // independent ops (or two receives) is a legal reordering.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

// ---- Plan reuse and transport equivalence. ----

TEST(ExecutorPlan, RepeatedRunsAreBitIdentical) {
  const Ddg g = workloads::fig7_loop();
  const std::int64_t n = 40;
  const ExecutorPlan plan = compile(fig7_program(g, n), g);
  const ExecutionResult first = plan.run(n);
  const ExecutionResult second = plan.run(n);
  const ExecutionResult reference = run_reference(g, n);
  expect_equal_values(first, reference, n);
  expect_equal_values(second, reference, n);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(first.at(v, i), second.at(v, i));
    }
  }
}

TEST(ExecutorPlan, BothTransportsMatchSequential) {
  const Ddg g = workloads::ll20_discrete_ordinates();
  const Machine m{3, 2};
  const std::int64_t n = 30;
  const CyclicSchedResult r = cyclic_sched(g, m);
  ASSERT_TRUE(r.pattern.has_value());
  const ExecutorPlan plan =
      compile(lower(materialize(*r.pattern, m.processors, n), g), g);
  // The mutex leg left with the mutex transport; the SPSC leg remains.
  expect_equal_values(plan.run(n), run_reference(g, n), n);
}

TEST(ExecutorPlan, RandomLoopsMatchOnBothTransports) {
  for (const std::uint64_t seed : {3u, 12u, 19u}) {
    const Ddg g = workloads::random_connected_cyclic_loop(seed);
    const Machine m{4, 3};
    const std::int64_t n = 20;
    const CyclicSchedResult r = cyclic_sched(g, m);
    ASSERT_TRUE(r.pattern.has_value());
    const ExecutorPlan plan =
        compile(lower(materialize(*r.pattern, m.processors, n), g), g);
    expect_equal_values(plan.run(n), run_reference(g, n), n);
  }
}

TEST(ExecutorPlan, RunRejectsTooFewIterations) {
  const Ddg g = workloads::fig7_loop();
  const ExecutorPlan plan = compile(fig7_program(g, 20), g);
  EXPECT_EQ(plan.program().iterations, 20);
  EXPECT_THROW((void)plan.run(10), ContractViolation);
}

}  // namespace
}  // namespace mimd
