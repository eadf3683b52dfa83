#include "runtime/plan_service.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "runtime/jit_compiler.hpp"
#include "support/assert.hpp"

namespace mimd {

namespace {

/// The shared concurrent-driver skeleton: `concurrency` plain std::threads
/// pull indexes [0, count) from one cursor and hand each to `body`.  On
/// the first exception the cursor is poisoned (peers stop picking up new
/// work, in-flight work finishes) and that exception is rethrown after
/// every driver has drained.
/// With concurrency 1 the body runs on the calling thread instead.
template <typename Body>
void drive_indexed(std::size_t count, std::size_t concurrency,
                   const Body& body) {
  if (count == 0) return;
  if (concurrency == 0) {
    concurrency = std::thread::hardware_concurrency();
    if (concurrency == 0) concurrency = 1;
  }
  if (concurrency > count) concurrency = count;
  if (concurrency == 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> cursor{0};
  std::mutex error_mu;
  std::exception_ptr first_error;

  auto drive = [&] {
    for (;;) {
      const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        cursor.store(count, std::memory_order_relaxed);
        return;
      }
    }
  };

  std::vector<std::thread> drivers;
  drivers.reserve(concurrency);
  for (std::size_t d = 0; d < concurrency; ++d) {
    drivers.emplace_back(drive);
  }
  for (std::thread& d : drivers) d.join();
  if (first_error) std::rethrow_exception(first_error);
}

/// Sum of per-job tallies.  Each job's slot is written only by the thread
/// that ran the job, so no counter is ever shared between threads.
JitRunCounters sum(const std::vector<JitRunCounters>& per_job) {
  JitRunCounters total;
  for (const JitRunCounters& c : per_job) total += c;
  return total;
}

}  // namespace

ExecutionResult run_plan(const PlanJob& job, WorkerPool& pool,
                         JitRunCounters& counters) {
  const ExecutorPlan& plan = *job.plan;
  const std::int64_t compiled = plan.program().iterations;
  const std::int64_t n = job.iterations == 0 ? compiled : job.iterations;
  MIMD_EXPECTS(n == compiled);
  RunOptions opts = job.ropts;
  opts.pool = &pool;
  if (job.kernel && jit_run_eligible(opts)) {
    ++counters.native;
    return job.kernel->run(n, &pool);
  }
  if (job.kernel) ++counters.ineligible;
  return plan.run(n, opts);
}

BatchReport run_batch(const std::vector<BatchJob>& jobs, PlanCache& cache,
                      WorkerPool& pool, std::size_t concurrency) {
  BatchReport report;
  report.results.resize(jobs.size());
  std::vector<JitRunCounters> counters(jobs.size());
  const auto t0 = std::chrono::steady_clock::now();
  std::exception_ptr error;
  try {
    drive_indexed(jobs.size(), concurrency, [&](std::size_t i) {
      const BatchJob& job = jobs[i];
      const auto cached =
          cache.get_or_compile_jit(job.program, job.graph, job.copts);
      PlanJob resolved;
      resolved.plan = cached.plan;
      resolved.iterations = job.iterations;
      resolved.ropts = job.ropts;
      resolved.kernel = cached.kernel();
      report.results[i] = run_plan(resolved, pool, counters[i]);
    });
  } catch (...) {
    error = std::current_exception();
  }
  const auto t1 = std::chrono::steady_clock::now();

  report.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  report.cache_stats = cache.stats();
  report.jit = sum(counters);
  if (error) std::rethrow_exception(error);
  return report;
}

std::vector<ExecutionResult> run_plans(const std::vector<PlanJob>& jobs,
                                       WorkerPool& pool,
                                       std::size_t concurrency) {
  std::vector<ExecutionResult> results(jobs.size());
  drive_indexed(jobs.size(), concurrency, [&](std::size_t i) {
    JitRunCounters unused;
    results[i] = run_plan(jobs[i], pool, unused);
  });
  return results;
}

}  // namespace mimd
