// The benchmark's three workloads and the pieces its tests pin down: the
// seeded structure pool and op sequence, the front end -> parallelize
// build of one op, and the metric tables.  See perfbench/README.md for
// why each workload exists and which layer each metric belongs to.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/parallelizer.hpp"
#include "graph/ddg.hpp"
#include "partition/compiled_program.hpp"
#include "schedule/machine.hpp"
#include "trace.hpp"

namespace perfbench {

/// A precondition of the benchmark itself failed (JIT kernels never
/// published, a timed run served interpreted while the JIT is available,
/// too few samples for a reported percentile).  The run stops without a
/// result rather than report numbers that measure something else.
class BenchAbort : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" | "higher"
};

/// Printed with tracing off, by every workload.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Printed with tracing on, by every workload (0 for a layer the
/// workload does not exercise).
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// A loop a workload can build: a graph from the library's workload
/// suites, or .loop text that goes through the front end first.
struct Structure {
  std::string name;
  std::optional<mimd::Ddg> graph;
  std::string source;
};

/// fig7, cytron86, elliptic and the Livermore suite (LL18 included).
[[nodiscard]] std::vector<Structure> paper_structures();
/// paper_structures() plus kTextLoops .loop programs from the IR-level
/// generator.  The corpus is fixed (generator seeds derive from
/// kCorpusSeed, not the run's seed) so that runs with different seeds
/// measure the same traffic mix; the run's seed drives the op sequence.
[[nodiscard]] std::vector<Structure> trip_sweep_pool();
inline constexpr std::size_t kTextLoops = 6;
inline constexpr std::uint64_t kCorpusSeed = 1;

/// Deterministic 64-bit mix of (seed, i): every seeded choice goes
/// through it, so op i is the same op whichever client thread draws it.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t i);

/// Element i of a seeded shuffled round robin over [0, size): every block
/// of `size` consecutive picks is a permutation, so any run covers each
/// element evenly whatever the seed, and seeds differ only in order.
/// `stream` keeps independent sequences of one seed apart.
[[nodiscard]] std::size_t balanced_pick(std::uint64_t seed,
                                        std::uint64_t stream, std::uint64_t i,
                                        std::size_t size);

struct OpSpec {
  std::size_t structure = 0;
  std::int64_t n = 0;
};
inline constexpr std::int64_t kTripMin = 512;
inline constexpr std::int64_t kTripMax = 8192;
/// Op i of the trip_sweep sequence: a structure by balanced_pick() and a
/// trip count drawn log-uniformly from [kTripMin, kTripMax].  The log
/// range is cut into pool_size strata; in block r of pool_size ops,
/// structure s draws from stratum (s + r) mod pool_size, so pool_size
/// consecutive blocks pair every structure with every stratum once.  The
/// seed picks the order within a block and the point within a stratum.
[[nodiscard]] OpSpec trip_sweep_op(std::uint64_t seed, std::uint64_t i,
                                   std::size_t pool_size);

/// One independent strand of a built loop, ready to submit or compile.
struct Built {
  mimd::ParallelizeResult result;
  mimd::CompileOptions copts;
};

/// front end (text only: parse, if-convert, optimize, dependences) then
/// parallelize, one span per layer call.  Fission can split text into
/// several strands.  `rewrites` (optional) accumulates the mid-end's
/// rewrite count.
[[nodiscard]] std::vector<Built> build_programs(const Structure& s,
                                                std::int64_t n,
                                                const mimd::Machine& machine,
                                                SpanLog& log, std::uint64_t op,
                                                int* rewrites = nullptr);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the server's Unix socket (keep it short: sun_path).
  std::string run_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  /// end_to_end_metrics() with tracing off, per_layer_metrics() with it on.
  std::vector<Metric> metrics;
  /// Human-readable lines: the workload's metrics under the names its
  /// documentation uses, sample counts, failure breakdown.
  std::vector<std::string> report;
  /// One log per driver thread; written out by the caller.
  std::vector<std::unique_ptr<SpanLog>> logs;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload end to end.  Throws BenchAbort on a failed
/// precondition and std::invalid_argument on an unknown workload.
[[nodiscard]] Outcome run_workload(const Options& opts);

}  // namespace perfbench
