// Threaded MIMD executor: runs a PartitionedProgram on real std::threads,
// one per processor, communicating through point-to-point FIFO channels —
// the closest thing to the paper's target machine available on a
// shared-memory multicore (per-value message passing, asynchronous
// processors, no global clock).
//
// The executor is split compiler-style so per-run cost is pure execution:
//
//   compile(prog, g) -> ExecutorPlan      (once; validates, resolves names)
//   plan.run(n, opts) -> ExecutionResult  (repeatable; hot path only)
//
// compile() lowers the interpreted program to the slot-resolved
// CompiledProgram form (partition/compiled_program.hpp): dense channel
// ids, per-thread flat slot arrays, and pre-resolved operand descriptors —
// no associative lookups remain on the run() path.  Values travel over
// lock-free SPSC rings (runtime/spsc_ring.hpp), and the compiled threads
// run as one gang on a persistent WorkerPool (runtime/worker_pool.hpp).
//
// Memory discipline (race freedom by construction):
//  * result value (v, i) is written by exactly the thread that computes it;
//  * a thread reads a slot only it wrote; every cross-thread operand
//    arrives through a channel.
// The channels provide the necessary happens-before edges (acquire/release
// on the ring cursors); validation compares against
// run_reference bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/ddg.hpp"
#include "partition/compiled_program.hpp"
#include "partition/partitioned_loop.hpp"
#include "runtime/kernels.hpp"

namespace mimd {

/// One value per (node, iteration), stored as the kernel ABI's row-major
/// block (partition/c_codegen.hpp): node v, iteration i is
/// values[v * iterations + i].  Every producer (interpreter, JIT kernel,
/// wire decoder, sequential reference) fills this one layout in place.
struct ExecutionResult {
  std::size_t nodes = 0;
  std::int64_t iterations = 0;
  /// nodes x iterations, zero-initialized: entries no processor computes
  /// stay 0.0.
  std::vector<double> values;
  double wall_seconds = 0.0;

  ExecutionResult() = default;
  ExecutionResult(std::size_t num_nodes, std::int64_t num_iterations)
      : nodes(num_nodes),
        iterations(num_iterations),
        values(num_nodes * static_cast<std::size_t>(num_iterations), 0.0) {}

  [[nodiscard]] double& at(std::size_t v, std::int64_t i) {
    return values[v * static_cast<std::size_t>(iterations) +
                  static_cast<std::size_t>(i)];
  }
  [[nodiscard]] double at(std::size_t v, std::int64_t i) const {
    return values[v * static_cast<std::size_t>(iterations) +
                  static_cast<std::size_t>(i)];
  }
};

class WorkerPool;

struct RunOptions {
  KernelOptions kernel;
  /// The persistent pool whose workers run the compiled threads
  /// (runtime/worker_pool.hpp).  Null (default): the process-default pool,
  /// default_worker_pool().  Non-owning; the pool must outlive the run.
  /// Results are bit-identical on any pool.
  WorkerPool* pool = nullptr;

  RunOptions() = default;
  // NOLINTNEXTLINE(google-explicit-constructor) — existing call sites pass
  // bare KernelOptions; a kernel choice alone is a complete run request.
  RunOptions(const KernelOptions& k) : kernel(k) {}
};

/// A compiled, reusable execution plan.  Immutable after compile(): run()
/// is const, thread-compatible, and bit-for-bit deterministic — two run()
/// calls with equal arguments produce identical values.
class ExecutorPlan {
 public:
  ExecutorPlan() = default;

  /// Execute for `n` iterations, which must equal program().iterations
  /// (ContractViolation otherwise, before any thread starts): a plan computes
  /// exactly the iterations it was compiled for.  Every ring is sized to its
  /// channel's exact message count, so sends never block.  A mid-run FIFO
  /// tag mismatch (which a compiled program cannot trigger) is fatal: it
  /// fires on a worker thread, where the escaping exception is
  /// std::terminate with the violation message, because a failed worker
  /// cannot unwind the peers blocked on its channels.
  [[nodiscard]] ExecutionResult run(std::int64_t n,
                                    const RunOptions& opts = {}) const;

  [[nodiscard]] const CompiledProgram& program() const { return compiled_; }
  [[nodiscard]] const Ddg& graph() const { return graph_; }

 private:
  friend ExecutorPlan compile(const PartitionedProgram&, const Ddg&,
                              const CompileOptions&);

  CompiledProgram compiled_;
  Ddg graph_;  ///< owned copy: a plan outlives its inputs
};

/// Validate and compile `prog` (compile_program) into a reusable plan.
/// Channel table, slot resolution (liveness-based reuse), and thread order
/// are all fixed here, amortized across every subsequent run().
[[nodiscard]] ExecutorPlan compile(const PartitionedProgram& prog,
                                   const Ddg& g,
                                   const CompileOptions& copts = {});

/// The sequential reference: run `n` iterations of `g` in one thread,
/// every node of iteration i in intra-iteration topological order before
/// iteration i + 1, on the same KernelOptions; timed.  Operands that reach
/// back before iteration 0 read initial_value(src).
ExecutionResult run_reference(const Ddg& g, std::int64_t n,
                              const KernelOptions& opts = {});

/// True iff `a` and `b` have the same node count, both hold at least `n`
/// iterations, and they agree on the IEEE-754 bit pattern of every
/// (node, iteration < n) value (NaN == NaN, +0 != -0) — the runtime's
/// correctness oracle, shared by mimdc --run and the benches.
[[nodiscard]] bool values_match(const ExecutionResult& a,
                                const ExecutionResult& b, std::int64_t n);

}  // namespace mimd
