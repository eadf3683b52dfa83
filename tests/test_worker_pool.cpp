// The plan service's pool half: gang execution, growth, concurrent gangs
// (the FIFO-claim deadlock-freedom invariant, replayed under TSan in CI),
// and runs on a caller's pool bit-identical to runs on the
// process-default pool.  Tests named "...Spawn..." predate the removal of spawn-per-run execution; the
// default pool now stands where the spawned threads used to.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "core/mimd.hpp"
#include "partition/lowering.hpp"
#include "runtime/executor.hpp"
#include "runtime/worker_pool.hpp"
#include "schedule/cyclic_sched.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"

namespace mimd {
namespace {

ExecutorPlan fig7_plan(std::int64_t n) {
  const Ddg g = workloads::fig7_loop();
  const Machine m{2, 2};
  const CyclicSchedResult r = cyclic_sched(g, m);
  EXPECT_TRUE(r.pattern.has_value());
  return compile(lower(materialize(*r.pattern, m.processors, n), g), g);
}

void expect_identical(const ExecutionResult& a, const ExecutionResult& b,
                      std::int64_t n) {
  ASSERT_EQ(a.nodes, b.nodes);
  for (std::size_t v = 0; v < a.nodes; ++v) {
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(a.at(v, i), b.at(v, i))
          << "node " << v << " iter " << i;
    }
  }
}

// ---- The pool itself ----

TEST(WorkerPool, RunsEveryTaskOfAGangExactlyOnce) {
  WorkerPool pool;
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.emplace_back([&counter] { counter.fetch_add(1); });
  }
  pool.run_gang(std::move(tasks));
  EXPECT_EQ(counter.load(), 8);
  EXPECT_EQ(pool.gangs_run(), 1u);
  EXPECT_GE(pool.num_workers(), 8u);
}

TEST(WorkerPool, GrowsToTheWidestGangAndPersists) {
  WorkerPool pool(2);
  EXPECT_EQ(pool.num_workers(), 2u);
  pool.run_gang({[] {}, [] {}, [] {}, [] {}, [] {}});
  EXPECT_GE(pool.num_workers(), 5u);
  const std::size_t grown = pool.num_workers();
  pool.run_gang({[] {}});
  EXPECT_EQ(pool.num_workers(), grown);  // never shrinks
  EXPECT_EQ(pool.gangs_run(), 2u);
}

TEST(WorkerPool, EmptyGangIsANoOp) {
  WorkerPool pool;
  pool.run_gang({});
  EXPECT_EQ(pool.gangs_run(), 0u);
}

TEST(WorkerPool, GangTasksMayBlockOnEachOther) {
  // The executor's real shape: tasks that cannot finish until their gang
  // peers run.  A pool that ran tasks one at a time would deadlock here.
  WorkerPool pool;
  std::atomic<int> arrived{0};
  std::vector<std::function<void()>> tasks;
  constexpr int kGang = 4;
  for (int i = 0; i < kGang; ++i) {
    tasks.emplace_back([&arrived] {
      arrived.fetch_add(1);
      while (arrived.load() < kGang) std::this_thread::yield();
    });
  }
  pool.run_gang(std::move(tasks));
  EXPECT_EQ(arrived.load(), kGang);
}

TEST(WorkerPool, ConcurrentGangsFromManyCallersComplete) {
  WorkerPool pool;
  constexpr int kCallers = 6;
  constexpr int kGangsEach = 10;
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (int r = 0; r < kGangsEach; ++r) {
        std::atomic<int> arrived{0};
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 3; ++i) {
          tasks.emplace_back([&arrived, &total] {
            arrived.fetch_add(1);
            while (arrived.load() < 3) std::this_thread::yield();
            total.fetch_add(1);
          });
        }
        pool.run_gang(std::move(tasks));
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(total.load(), kCallers * kGangsEach * 3);
  EXPECT_EQ(pool.gangs_run(),
            static_cast<std::uint64_t>(kCallers) * kGangsEach);
}

// ---- Pooled executor runs ----

TEST(WorkerPool, PooledRunIsBitIdenticalToSpawnOnBothTransports) {
  const std::int64_t n = 40;
  const ExecutorPlan plan = fig7_plan(n);
  WorkerPool pool;
  const ExecutionResult on_default = plan.run(n);

  RunOptions pooled_opts;
  pooled_opts.pool = &pool;
  const ExecutionResult pooled_first = plan.run(n, pooled_opts);
  const ExecutionResult pooled_again = plan.run(n, pooled_opts);

  expect_identical(pooled_first, on_default, n);
  expect_identical(pooled_again, on_default, n);  // reuse changes nothing
  EXPECT_EQ(pool.gangs_run(), 2u);
}

// A caller that brings no pool runs on the one lazily built process-
// default pool: each pool-less run is one gang there, and sequential runs
// grow it no wider than the widest gang they brought.
TEST(WorkerPool, PoolLessRunsShareTheDefaultPool) {
  const Ddg g = workloads::fig7_loop();
  ParallelizeOptions popts;
  popts.machine = Machine{2, 2};
  popts.iterations = 24;
  popts.emit_code = false;
  const ParallelizeResult r = parallelize(g, popts);
  const std::size_t widest = r.program.programs.size();

  WorkerPool& pool = default_worker_pool();
  EXPECT_EQ(&pool, &default_worker_pool());
  const std::uint64_t gangs_before = pool.gangs_run();
  // Another test in this process may already have widened the pool.
  const std::size_t workers_before = pool.num_workers();
  const ExecutorPlan plan = compile(r.program, r.normalized.graph);
  const ExecutionResult first = plan.run(r.normalized_iterations);
  const ExecutionResult second = plan.run(r.normalized_iterations);
  EXPECT_EQ(pool.gangs_run() - gangs_before, 2u);
  EXPECT_LE(pool.num_workers(), std::max(workers_before, widest));
  expect_identical(first, second, r.normalized_iterations);
  expect_identical(
      first, run_reference(r.normalized.graph, r.normalized_iterations),
      r.normalized_iterations);
}

TEST(WorkerPool, OnePoolServesManyPlansAndConcurrentRuns) {
  const std::int64_t n = 30;
  const Ddg ll20 = workloads::ll20_discrete_ordinates();
  const Machine m{3, 2};
  const CyclicSchedResult r = cyclic_sched(ll20, m);
  ASSERT_TRUE(r.pattern.has_value());
  const ExecutorPlan ll20_plan =
      compile(lower(materialize(*r.pattern, m.processors, n), ll20), ll20);
  const ExecutorPlan fig7 = fig7_plan(n);

  // Concurrent callers on one explicit pool, then concurrent pool-less
  // callers sharing the process-default pool.
  WorkerPool pool;
  std::vector<std::thread> drivers;
  std::atomic<bool> ok{true};
  for (int d = 0; d < 8; ++d) {
    drivers.emplace_back([&, d] {
      const ExecutorPlan& plan = (d % 2 == 0) ? fig7 : ll20_plan;
      const Ddg& g = (d % 2 == 0) ? fig7.graph() : ll20;
      RunOptions opts;
      opts.pool = d < 4 ? &pool : nullptr;
      const ExecutionResult res = plan.run(n, opts);
      const ExecutionResult reference = run_reference(g, n);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        for (std::int64_t i = 0; i < n; ++i) {
          if (res.at(v, i) != reference.at(v, i)) {
            ok.store(false);
          }
        }
      }
    });
  }
  for (std::thread& t : drivers) t.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(pool.gangs_run(), 4u);
}

// ---- The JIT's pool dispatch path, with a stub kernel ----

// JitKernel::run is compiled out under TSan (dlopen'd kernels are
// uninstrumented), but its dispatch skeleton — one context, one
// run_indexed_gang over threads() tasks — is plain instrumented code.
// Replay it with an in-process fake kernel whose "threads" rendezvous
// through the context, proving run_indexed_gang co-schedules the whole
// gang (a dispatcher running tasks one at a time would deadlock) and
// funnels every index to its own slot exactly once, on a caller's pool
// or the default one.
TEST(WorkerPool, IndexedGangCoSchedulesAStubKernelsThreads) {
  constexpr std::size_t kThreads = 3;
  struct FakeCtx {
    std::atomic<int> arrived{0};
    std::atomic<int> runs[kThreads] = {};
  };
  WorkerPool pool;
  for (const bool use_pool : {true, false}) {
    FakeCtx ctx;  // mimics mimd_kernel_ctx_create
    run_indexed_gang(use_pool ? pool : default_worker_pool(), kThreads,
                     [&ctx](std::size_t i) {
                       // mimics mimd_kernel_run_on(ctx, i): blocks until
                       // every gang peer is in flight, like the real
                       // kernel's ring handoffs.
                       ctx.arrived.fetch_add(1);
                       while (ctx.arrived.load() <
                              static_cast<int>(kThreads)) {
                         std::this_thread::yield();
                       }
                       ctx.runs[i].fetch_add(1);
                     });
    for (std::size_t i = 0; i < kThreads; ++i) {
      EXPECT_EQ(ctx.runs[i].load(), 1)
          << "thread " << i << (use_pool ? " pooled" : " default pool");
    }
  }
  EXPECT_EQ(pool.gangs_run(), 1u);  // only the use_pool round
}

}  // namespace
}  // namespace mimd
