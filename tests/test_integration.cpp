// Cross-product integration sweep: every stage of the pipeline, on every
// paper workload, across machine shapes — the "does the whole machine
// hold together" suite.  Each case runs classify -> schedule -> lower ->
// validate -> simulate and checks the global invariants:
//   * the combined schedule respects every dependence with comm costs,
//   * the lowered program is well-formed (matched FIFO messages),
//   * the mm=1 simulation meets the compile-time makespan,
//   * the steady rate respects both lower bounds,
//   * simulated traces respect dependences under jitter.
#include <gtest/gtest.h>

#include <tuple>

#include "core/mimd.hpp"
#include "partition/compiled_program.hpp"
#include "partition/lowering.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"

namespace mimd {
namespace {

struct Shape {
  int processors;
  int k;
  FlowStrategy strategy;
};

class PipelineSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {
 protected:
  static std::vector<std::pair<std::string, Ddg>> workload_set() {
    auto set = workloads::livermore_suite();
    set.emplace_back("fig3", workloads::fig3_loop());
    set.emplace_back("fig7", workloads::fig7_loop());
    set.emplace_back("cytron86", workloads::cytron86_loop());
    set.emplace_back("elliptic", workloads::elliptic_filter_loop());
    return set;
  }
};

TEST_P(PipelineSweep, EndToEndInvariantsHold) {
  const auto [procs, k, strat] = GetParam();
  const Machine m{procs, k};
  const FullSchedOptions opts{static_cast<FlowStrategy>(strat), {}};
  const std::int64_t n = 24;

  for (const auto& [name, g0] : workload_set()) {
    const Ddg g = normalize_distances(g0).graph;
    SCOPED_TRACE(name + " P=" + std::to_string(procs) +
                 " k=" + std::to_string(k) + " strat=" + std::to_string(strat));

    const FullSchedResult r = full_sched(g, m, n, opts);
    // Completeness + validity.
    ASSERT_EQ(r.schedule.size(), g.num_nodes() * n);
    ASSERT_EQ(find_dependence_violation(g, m, r.schedule), std::nullopt);
    // Rate bounds.
    EXPECT_GE(r.steady_ii + 1e-6, max_cycle_ratio(g));
    EXPECT_GE(r.steady_ii * m.processors + 1e-6,
              static_cast<double>(g.body_latency()));
    // Lowering.
    const PartitionedProgram prog = lower(r.schedule, g);
    ASSERT_NO_THROW((void)compile_program(prog, g));
    EXPECT_EQ(prog.count(Op::Kind::Compute), g.num_nodes() * n);
    // Simulation at the estimate: dataflow can only beat the static plan.
    SimOptions so;
    so.machine = m;
    const SimResult sim = simulate(prog, g, so);
    EXPECT_LE(sim.makespan, r.schedule.makespan());
    // Simulation under jitter: still dependence-correct.
    so.mm = 4;
    so.jitter = JitterMode::Uniform;
    so.seed = 99;
    Trace trace;
    (void)simulate(prog, g, so, &trace);
    EXPECT_EQ(find_trace_violation(trace, g, /*min_comm=*/0), std::nullopt);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MachineShapes, PipelineSweep,
    ::testing::Combine(::testing::Values(2, 4, 8),   // processors
                       ::testing::Values(1, 2, 4),   // comm estimate k
                       ::testing::Values(0, 1)));    // flow strategy

}  // namespace
}  // namespace mimd
