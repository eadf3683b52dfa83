#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "baseline/doacross.hpp"
#include "baseline/sequential.hpp"
#include "partition/compiled_program.hpp"
#include "partition/lowering.hpp"
#include "runtime/executor.hpp"
#include "schedule/cyclic_sched.hpp"
#include "schedule/full_sched.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"
#include "workloads/random_loops.hpp"

namespace mimd {
namespace {

/// The central runtime property: a partitioned threaded execution computes
/// bit-identical values to the sequential reference.
void expect_threaded_matches_sequential(const Ddg& g, const Machine& m,
                                        std::int64_t n) {
  const CyclicSchedResult r = cyclic_sched(g, m);
  ASSERT_TRUE(r.pattern.has_value());
  const Schedule s = materialize(*r.pattern, m.processors, n);
  const PartitionedProgram prog = lower(s, g);
  ASSERT_NO_THROW((void)compile_program(prog, g));

  const ExecutionResult threaded = compile(prog, g).run(n);
  const ExecutionResult reference = run_reference(g, n);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(threaded.at(v, i), reference.at(v, i))
          << g.node(v).name << "@" << i;
    }
  }
}

TEST(Runtime, Fig7ThreadedMatchesSequential) {
  expect_threaded_matches_sequential(workloads::fig7_loop(), Machine{2, 2}, 50);
}

TEST(Runtime, Ll20ThreadedMatchesSequential) {
  expect_threaded_matches_sequential(workloads::ll20_discrete_ordinates(),
                                     Machine{3, 2}, 40);
}

TEST(Runtime, Livermore18ThreadedMatchesSequential) {
  expect_threaded_matches_sequential(workloads::livermore18_loop(),
                                     Machine{4, 2}, 30);
}

TEST(Runtime, FullScheduleWithFlowPoolsExecutesCorrectly) {
  const Ddg g = workloads::cytron86_loop();
  const Machine m{8, 2};
  const std::int64_t n = 24;
  const FullSchedResult r = full_sched(g, m, n);
  const PartitionedProgram prog = lower(r.schedule, g);
  const ExecutionResult threaded = compile(prog, g).run(n);
  const ExecutionResult reference = run_reference(g, n);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(threaded.at(v, i), reference.at(v, i));
    }
  }
}

TEST(Runtime, DoacrossProgramExecutesCorrectly) {
  const Ddg g = workloads::cytron86_loop();
  const Machine m{4, 2};
  const DoacrossResult doa = doacross(g, m, 16);
  const ExecutionResult threaded =
      compile(lower(doa.schedule, g), g).run(16);
  const ExecutionResult reference = run_reference(g, 16);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (std::int64_t i = 0; i < 16; ++i) {
      ASSERT_EQ(threaded.at(v, i), reference.at(v, i));
    }
  }
}

class RuntimeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuntimeProperty, RandomLoopsExecuteBitIdentically) {
  expect_threaded_matches_sequential(
      workloads::random_connected_cyclic_loop(GetParam()), Machine{4, 3}, 20);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeProperty,
                         ::testing::Values(1, 2, 3, 6, 12, 19, 25));

TEST(Runtime, ReportsWallTime) {
  const Ddg g = workloads::fig7_loop();
  const ExecutionResult r = run_reference(g, 100);
  EXPECT_GE(r.wall_seconds, 0.0);
  EXPECT_EQ(r.nodes, g.num_nodes());
  EXPECT_EQ(r.iterations, 100);
  EXPECT_EQ(r.values.size(), g.num_nodes() * 100);
}

/// A two-node, two-iteration result whose (1, 1) value is `last`.
ExecutionResult two_by_two(double last) {
  ExecutionResult r(2, 2);
  r.values = {0.25, 0.5, 0.75, last};
  return r;
}

TEST(Runtime, ValuesMatchComparesBitPatterns) {
  // The oracle is bit-exact: a NaN equals the same NaN payload, and a
  // signed-zero divergence is a mismatch even though +0.0 == -0.0.
  const double nan = std::bit_cast<double>(0x7FF8DEADBEEF0001ull);
  EXPECT_TRUE(values_match(two_by_two(nan), two_by_two(nan), 2));
  EXPECT_FALSE(values_match(two_by_two(0.0), two_by_two(-0.0), 2));
  EXPECT_FALSE(values_match(
      two_by_two(nan), two_by_two(std::bit_cast<double>(0x7FF8000000000002ull)),
      2));
}

TEST(Runtime, ValuesMatchChecksShapeBeforeValues) {
  const ExecutionResult a = two_by_two(1.0);
  // Only iterations < n are compared; a wider result may match a
  // narrower one, but neither may hold fewer than n.
  EXPECT_TRUE(values_match(a, two_by_two(1.0), 1));
  EXPECT_TRUE(values_match(a, two_by_two(2.0), 1));
  EXPECT_FALSE(values_match(a, two_by_two(1.0), 3));
  // Each result is indexed by its own stride.
  ExecutionResult wide(2, 3);
  wide.values = {0.25, 0.5, 9.0, 0.75, 1.0, 9.0};
  EXPECT_TRUE(values_match(a, wide, 2));
  EXPECT_FALSE(values_match(a, wide, 3));
  // A different node count never matches, even over zero iterations.
  EXPECT_FALSE(values_match(a, ExecutionResult(3, 2), 0));
}

TEST(Runtime, ZeroIterationsRunsCleanly) {
  const Ddg g = workloads::fig7_loop();
  PartitionedProgram empty;
  empty.processors = 2;
  empty.programs.resize(2);
  empty.programs[0].proc = 0;
  empty.programs[1].proc = 1;
  const ExecutionResult r = compile(empty, g).run(0);
  EXPECT_EQ(r.nodes, g.num_nodes());
  EXPECT_TRUE(r.values.empty());
}

}  // namespace
}  // namespace mimd
