// Execute a partitioned recurrence on real threads and validate the
// numbers against sequential execution — the library's "it actually runs
// on a MIMD machine" demonstration.
//
//   ./threaded_recurrence [iterations] [work_per_cycle]
//
// work_per_cycle coarsens the per-node grain (the paper's footnote 3:
// node granularity should be of the same order as communication cost);
// larger values let real speedup emerge through channel overhead.
#include <cstdio>
#include <cstdlib>

#include "core/mimd.hpp"
#include "partition/lowering.hpp"
#include "runtime/executor.hpp"
#include "workloads/livermore.hpp"

int main(int argc, char** argv) {
  using namespace mimd;
  const std::int64_t n = argc > 1 ? std::atoll(argv[1]) : 20000;
  KernelOptions kernel;
  kernel.work_per_cycle = argc > 2 ? std::atoi(argv[2]) : 2000;

  const Ddg g = workloads::livermore18_loop();
  const Machine m{2, 2};  // host-friendly: this box has 2 cores

  const FullSchedOptions fold{FlowStrategy::Fold, {}};
  const FullSchedResult sched = full_sched(g, m, n, fold);
  const PartitionedProgram prog = lower(sched.schedule, g);
  std::printf("LL18 on %d threads: %lld iterations, %zu ops, %zu messages\n",
              m.processors, static_cast<long long>(n), prog.total_ops(),
              prog.count(Op::Kind::Send));

  const ExecutionResult seq = run_reference(g, n, kernel);
  const ExecutionResult par = compile(prog, g).run(n, kernel);

  // Bitwise validation of every computed value.
  if (!values_match(par, seq, n)) {
    std::printf("MISMATCH: threaded != sequential\n");
    return 1;
  }
  std::printf("validated %zu values: threaded == sequential (bitwise)\n",
              par.values.size());
  std::printf("sequential: %.3f s, threaded: %.3f s, speedup %.2fx\n",
              seq.wall_seconds, par.wall_seconds,
              seq.wall_seconds / par.wall_seconds);
  std::printf("(compile-time prediction: Sp %.1f%% -> %.2fx)\n",
              percentage_parallelism_asymptotic(g.body_latency(),
                                                sched.steady_ii),
              static_cast<double>(g.body_latency()) / sched.steady_ii);
  return 0;
}
