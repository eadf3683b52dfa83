// run_batch — the plan service's front door: push N independent loop
// instances through one shared PlanCache and one persistent WorkerPool,
// concurrently, and report throughput.
//
// This is the first end-to-end "many requests, one compiled program"
// scenario from the ROADMAP's north star: a service holding a warm cache
// of compiled plans and a warm pool of workers, where a request costs
// a hash lookup plus a pooled run instead of a full partition/compile
// cycle.  Duplicate structures across the batch — the common case for a
// service replaying the same hot loops — compile exactly once (PlanCache
// dedupes concurrent first requests too).
//
// Concurrency shape: `concurrency` driver threads pull jobs from a
// shared cursor; each driver resolves its job's plan in the cache and
// runs it on the pool.  Driver threads are plain std::threads (they
// spend their life blocked in run_gang), the pool's workers do the
// actual loop execution; with concurrency 1 the calling thread drives.
// Results land in per-job slots, so the output vector is in job order
// regardless of completion order.
//
// mimdc --batch <dir> and bench_plan_service are the two callers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/worker_pool.hpp"

namespace mimd {

/// One independent loop instance to execute.
struct BatchJob {
  PartitionedProgram program;
  Ddg graph;
  /// Iterations to run: 0 or the program's own compiled count (run_plan).
  std::int64_t iterations = 0;
  CompileOptions copts;
  /// Kernel options for this job.  `pool` is overridden by run_batch —
  /// every job runs on the shared pool.
  RunOptions ropts;
};

/// How the native tier served a set of resolved jobs.  `native` counts
/// every kernel-served job; `ineligible` counts jobs that had a published
/// kernel but ran interpreted anyway (a request shape the kernel does not
/// implement, see jit_run_eligible) — the counter that tells an operator
/// why warm traffic isn't native.  Every native run executes on the
/// caller's WorkerPool, so native is also the pooled count.
struct JitRunCounters {
  std::uint64_t native = 0;
  std::uint64_t ineligible = 0;

  JitRunCounters& operator+=(const JitRunCounters& o) {
    native += o.native;
    ineligible += o.ineligible;
    return *this;
  }
};

struct BatchReport {
  /// One result per job, in job order.
  std::vector<ExecutionResult> results;
  /// Cache stats after the batch (deltas vs before are the batch's own).
  PlanCache::Stats cache_stats;
  /// End-to-end wall time for the whole batch, including compiles.
  double wall_seconds = 0.0;
  /// How the native tier served the batch (all 0 for a cache without
  /// JIT).
  JitRunCounters jit;
};

/// Run every job through `cache` + `pool` with `concurrency` concurrent
/// drivers (0 = hardware_concurrency, clamped to the job count).  If a
/// job's program is ill-formed, peers stop picking up new jobs, in-flight
/// jobs finish, and the first error (what compile() throws) is rethrown
/// after all drivers drain.
BatchReport run_batch(const std::vector<BatchJob>& jobs, PlanCache& cache,
                      WorkerPool& pool, std::size_t concurrency = 0);

/// One already-resolved plan to execute — the post-cache form of BatchJob,
/// used where plans are held across requests (the mimdd daemon registers a
/// program once per connection and runs it many times).
struct PlanJob {
  std::shared_ptr<const ExecutorPlan> plan;
  /// Iterations to run: 0 or the plan's own compiled count.
  std::int64_t iterations = 0;
  /// `pool` is overridden — every job runs on the shared pool.
  RunOptions ropts;
  /// Optional published native kernel for this plan (the cache entry's
  /// JitSlot snapshot).  Used iff ropts is jit_run_eligible; otherwise
  /// the job runs interpreted.  Results are bit-identical either way.
  std::shared_ptr<const JitKernel> kernel;
};

/// The one dispatch every resolved run takes — run_batch, run_plans and
/// the mimdd server's Run frame all end here.  Runs `job`
/// on `pool`: native when a kernel is published and the request is
/// jit_run_eligible, interpreted otherwise, tallying the choice into
/// `counters`.  Bit-identical either way — the kernel is the same
/// CompiledProgram lowered through the C backend.  A job.iterations that
/// is neither 0 nor the compiled count raises ContractViolation before
/// anything runs: a plan computes exactly the iterations it was compiled
/// for, never zero rows past them.
ExecutionResult run_plan(const PlanJob& job, WorkerPool& pool,
                         JitRunCounters& counters);

/// run_batch without the cache leg: execute pre-resolved plans on `pool`
/// with the same concurrent-driver shape and error discipline (first error
/// — e.g. an iteration count other than the compiled one — rethrown after
/// the drain).  Results are in job order.
std::vector<ExecutionResult> run_plans(const std::vector<PlanJob>& jobs,
                                       WorkerPool& pool,
                                       std::size_t concurrency = 0);

}  // namespace mimd
