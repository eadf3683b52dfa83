// Persistent worker pool for the threaded executor — the "spawn once,
// serve many runs" half of the plan service (the other half is
// runtime/plan_cache.hpp).
//
// Every run, interpreted or native, executes its compiled threads on a
// WorkerPool.  At the small-n request sizes a plan service handles,
// creating a thread per compiled thread per run would dominate the run
// itself — the overhead inversion McKenney's *Is Parallel Programming
// Hard* warns about for fine-grained parallel runtimes.  A pool keeps its
// threads alive across runs, so a run costs two condvar handoffs per
// worker instead of a clone()/join() pair.  Callers that bring no pool
// (RunOptions::pool == nullptr) share default_worker_pool().
//
// Scheduling unit: the *gang*.  A compiled program's threads communicate
// through blocking channels, so a run's tasks must all be in flight
// before any of them can finish — running half a gang can deadlock the
// pool.  run_gang() therefore enqueues the task set as one unit and
// grows the pool to cover every *admitted* task (all unfinished tasks of
// queued and running gangs, plus the new gang's), so concurrent gangs
// from independent callers genuinely overlap instead of serializing
// behind one gang's width; growth is bounded by the callers themselves —
// each blocks in run_gang(), so admitted work never exceeds
// (concurrent callers) x (widest gang).  Workers claim tasks strictly
// from the front gang (FIFO), which keeps even a hypothetically
// undersized pool deadlock-free: at most one gang is ever partially
// claimed (the front one), every fully claimed gang is self-contained
// and finishes, and its freed workers then complete the front gang's
// claim — no circular wait, for any mix of concurrent run_gang() callers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mimd {

class WorkerPool;

/// Run `count` indexed tasks as one gang on `pool`'s workers, returning
/// when all have finished.  This is the one gang dispatch shared by the
/// interpreted executor and the JIT's kernel dispatch.  `body(i)` must
/// not throw.
void run_indexed_gang(WorkerPool& pool, std::size_t count,
                      const std::function<void(std::size_t)>& body);

/// The process-default pool that runs every gang whose caller brings no
/// pool of its own (a null RunOptions::pool, or a null pool passed to
/// JitKernel::run).  Built on first use, so a process that forks before
/// its first run (mimdd --daemonize) never forks a live pool.  It is
/// never destroyed: process exit does not join its workers, so an exit
/// can never wait on — or tear down — a gang still in flight.
[[nodiscard]] WorkerPool& default_worker_pool();

/// A persistent pool of worker threads executing gangs of blocking,
/// mutually communicating tasks.  Thread-safe: any number of threads may
/// call run_gang() concurrently; gangs are claimed FIFO.
///
/// Tasks must not throw — they run on pool threads where an escaping
/// exception is std::terminate (see ExecutorPlan::run's contract on
/// mid-run channel violations).
class WorkerPool {
 public:
  /// Workers are spawned lazily as gangs demand them; `initial_workers`
  /// merely pre-warms.  The pool only ever grows (to the largest gang
  /// seen), never shrinks — it is a process-lifetime resource.
  explicit WorkerPool(std::size_t initial_workers = 0);

  /// Completes every queued gang, then joins all workers.  The caller
  /// must ensure no run_gang() is in flight.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Run every task in `tasks` concurrently and return when all have
  /// finished.  Grows the pool to cover all admitted tasks first, so the
  /// gang can never starve itself and concurrent gangs run side by side.
  /// The calling thread blocks but does not execute tasks (it typically
  /// holds no worker invariants, and a blocked caller is exactly what
  /// plan.run() promised).
  void run_gang(std::vector<std::function<void()>> tasks);

  [[nodiscard]] std::size_t num_workers() const;

  /// Cumulative gangs executed — cheap observability for tests/benches.
  [[nodiscard]] std::uint64_t gangs_run() const;

 private:
  struct Gang {
    std::vector<std::function<void()>> tasks;
    std::size_t next_task = 0;   ///< claim cursor
    std::size_t remaining = 0;   ///< tasks not yet finished
  };

  void ensure_workers_locked(std::size_t want);
  void worker_main();

  mutable std::mutex mu_;
  std::condition_variable work_ready_;   ///< workers wait here
  std::condition_variable gang_done_;    ///< run_gang callers wait here
  std::deque<std::shared_ptr<Gang>> queue_;
  std::vector<std::thread> workers_;
  /// Unfinished tasks across every admitted gang — the pool-size floor
  /// that lets concurrent gangs overlap.
  std::size_t admitted_tasks_ = 0;
  std::uint64_t gangs_run_ = 0;
  bool stopping_ = false;
};

}  // namespace mimd
