// C code generation: emit a partitioned loop as C11 — the final artifact a
// parallelizing compiler of the paper's era would hand to the system
// compiler.  There is one emitted artifact, the loadable kernel
// (emit_c_kernel); the standalone program (emit_c_program) is that kernel
// followed by a fixed pthreads driver, so every compile-and-run of the
// program also exercises the code the JIT (runtime/jit_compiler.hpp)
// dlopen()s.
//
// The backend consumes the same CompiledProgram the in-process executor
// runs (partition/compiled_program.hpp): one lowering pipeline, no private
// name-to-slot or name-to-channel resolution here.  Layout of the kernel:
//  * one fixed-size slot array per thread (`double s[num_slots]`, sized by
//    the liveness-based reuse pass — O(live values), not O(ops));
//  * one value-carrying channel per (edge, src proc, dst proc) pair: a C11
//    `stdatomic.h` single-producer/single-consumer ring mirroring
//    runtime/spsc_ring.hpp — cache-line-separated cursors, acquire/release
//    publication, spin-then-yield waits — sized to the channel's exact
//    message count by the shared ring_capacity policy
//    (runtime/transport.hpp), so sends never block.  Rings live in a
//    heap-allocated per-call context, so one loaded kernel is reentrant;
//  * one function per processor running its compiled op sequence; computed
//    values are also stored to the caller's result matrix R[node * n +
//    iter] (single writer per entry).  Each thread's periodic steady state
//    (the pattern made it periodic by construction) is detected and
//    emitted as a real `for` loop — prologue straight-line, kernel rolled,
//    epilogue straight-line — like the paper's Figure 7(e); a stream
//    without at least three detected repetitions stays fully straight-line
//    code, which is always correct.
//
// Node semantics: the same synthetic combine the in-process executors use
// (runtime/kernels.hpp, work knob 0), emitted as C — identical operations
// in identical order, hence bitwise-identical doubles.
#pragma once

#include <string>

#include "graph/ddg.hpp"
#include "partition/compiled_program.hpp"
#include "runtime/transport.hpp"

namespace mimd {

struct CEmitOptions {
  /// Emit the sequential recompute + bitwise comparison into main()
  /// (default).  false (`mimdc --c --no-check`): skip the self-validation
  /// entirely — no SEQ array, no sequential() function — and emit a
  /// timing harness instead (CLOCK_MONOTONIC around the parallel section,
  /// a fold of the results printed so the work is observably live), so
  /// the emitted artifact serves as a standalone benchmark.  Validate a
  /// loop once with the default before timing it with --no-check.
  bool self_check = true;
};

/// Emit `cp` (compiled via compile_program over cp.iterations of `g`) as a
/// loadable kernel: no main(), no threads of its own — the host runs the
/// PE bodies on its own threads.  Build with `cc -O2 -std=c11 -shared
/// -fPIC`.  Kernel ABI v2 exports
///
///   const mimd_kernel_info_t mimd_kernel_info
///     = {abi_version, nodes, iterations, threads} (four long longs), so
///     a loader can validate the ABI and bounds before the first call;
///   void* mimd_kernel_ctx_create(long long n, const double* init,
///                                double* R)  — allocate + wire one
///     per-call context that runs the compiled iterations with `init[v]`
///     as node v's pre-loop value, writing every computed value to the
///     row-major result matrix `R[v * n + i]` (caller allocates
///     NODES * n doubles, zero-filled so uncomputed entries match the
///     interpreted executor's zero rows); NULL on bad args / allocation
///     failure;
///   int mimd_kernel_run_on(void* ctx, long long thread_id) — execute
///     compiled thread `thread_id`'s whole op stream on the calling
///     thread; enter exactly once per thread_id in [0, threads), all
///     ids concurrently (the PE bodies rendezvous through the ctx's
///     channel rings, so running them sequentially deadlocks);
///   void mimd_kernel_ctx_destroy(void* ctx) — release the context
///     after every run_on returned.
///
/// cp must compute at least one iteration (ContractViolation otherwise).
std::string emit_c_kernel(const CompiledProgram& cp, const Ddg& g);

/// Emit a complete C11 + pthreads program: emit_c_kernel(cp, g) verbatim,
/// followed by a driver whose main() creates one context over a
/// calloc'd NODES x N result matrix, runs one pthread per compiled thread
/// through mimd_kernel_run_on, and then either compares every (node,
/// i < cp.iterations) value with an in-program sequential recompute
/// (prints "OK", exit 0, on a bitwise match) or, without self_check,
/// prints the parallel wall time and a fold.  Build with `cc -O2 -std=c11
/// -pthread`.  Same precondition as emit_c_kernel.
std::string emit_c_program(const CompiledProgram& cp, const Ddg& g,
                           const CEmitOptions& opts = {});

}  // namespace mimd
