#include "runtime/worker_pool.hpp"

#include "support/assert.hpp"

namespace mimd {

void run_indexed_gang(WorkerPool& pool, std::size_t count,
                      const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    tasks.emplace_back([&body, i] { body(i); });
  }
  pool.run_gang(std::move(tasks));
}

WorkerPool& default_worker_pool() {
  // Deliberately leaked (see the header): a static WorkerPool object
  // would be destroyed at exit, joining workers that another thread may
  // still be driving through a gang.
  static WorkerPool* const pool = new WorkerPool();
  return *pool;
}

// ---- WorkerPool ----

WorkerPool::WorkerPool(std::size_t initial_workers) {
  const std::lock_guard<std::mutex> lock(mu_);
  ensure_workers_locked(initial_workers);
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void WorkerPool::ensure_workers_locked(std::size_t want) {
  while (workers_.size() < want) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

void WorkerPool::run_gang(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  auto gang = std::make_shared<Gang>();
  gang->remaining = tasks.size();
  gang->tasks = std::move(tasks);

  std::unique_lock<std::mutex> lock(mu_);
  MIMD_EXPECTS(!stopping_);
  // A gang's tasks block on each other through channels, so all of them
  // must be runnable concurrently — and independent gangs should overlap,
  // not queue behind one gang's width: size the pool for every admitted
  // task.  Growth is bounded by the concurrent callers (each blocks here
  // until its gang finishes).
  admitted_tasks_ += gang->tasks.size();
  ensure_workers_locked(admitted_tasks_);
  queue_.push_back(gang);
  work_ready_.notify_all();
  gang_done_.wait(lock, [&] { return gang->remaining == 0; });
  ++gangs_run_;
}

void WorkerPool::worker_main() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_ready_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;  // drained: queued gangs complete before exit
      continue;
    }
    // Claim strictly from the front gang; pop it once fully claimed so at
    // most one gang is ever partially claimed (the deadlock-freedom
    // invariant — see the class comment).
    const std::shared_ptr<Gang> gang = queue_.front();
    const std::size_t idx = gang->next_task++;
    if (gang->next_task == gang->tasks.size()) queue_.pop_front();
    lock.unlock();
    gang->tasks[idx]();
    lock.lock();
    --admitted_tasks_;
    if (--gang->remaining == 0) gang_done_.notify_all();
  }
}

std::size_t WorkerPool::num_workers() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

std::uint64_t WorkerPool::gangs_run() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return gangs_run_;
}

}  // namespace mimd
