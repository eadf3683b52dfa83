#include "workloads.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>

#include "host.hpp"
#include "ir/dependence.hpp"
#include "ir/ifconvert.hpp"
#include "ir/parser.hpp"
#include "metrics/metrics.hpp"
#include "opt/pipeline.hpp"
#include "runtime/executor.hpp"
#include "runtime/jit_compiler.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/plan_client.hpp"
#include "runtime/plan_server.hpp"
#include "runtime/plan_service.hpp"
#include "runtime/wire.hpp"
#include "runtime/worker_pool.hpp"
#include "stats.hpp"
#include "support/loop_gen.hpp"
#include "workloads/livermore.hpp"
#include "workloads/paper_examples.hpp"

namespace perfbench {

namespace {

using mimd::ExecutionResult;

/// Set-ups per run; setup_s is their median.  warm_native's set-up waits
/// seconds for the JIT, the others' take milliseconds and need more
/// repeats for a steady median.
constexpr int kSetups = 15;
constexpr int kWarmSetups = 5;
/// Client reply deadline: a wedged server becomes a transport error.
constexpr int kClientTimeoutMs = 120000;
/// warm_native: how long one set-up waits for every kernel to publish
/// (about 3 s on a 4-vCPU Xeon VM); kWarmSetups of them must fit in a run.
constexpr double kJitDeadlineS = 20.0;

// Both client-server workloads: 2 closed-loop connections, p=2, k=1.
constexpr int kClients = 2;
const mimd::Machine kServedMachine{2, 1};
constexpr std::int64_t kWarmTrip = 1024;
/// warm_native: every kSeqEvery-th op also times the sequential
/// reference, so its samples spread over the window as the latencies do.
constexpr std::uint64_t kSeqEvery = 4;

// coarse_grain: one in-process driver, p=3, k=1, node work comparable to
// one channel handoff.
const mimd::Machine kCoarseMachine{3, 1};
constexpr std::int64_t kCoarseTrip = 512;
constexpr int kCoarseWork = 500;

double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-6;
}

double uniform01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

/// Per-op samples by class: the structure an op ran (trip_sweep, where
/// no structure repeats at a trip count, has one class).
using Classes = std::map<std::size_t, std::vector<double>>;

/// One driver thread's record of its ops.
struct Driver {
  SpanLog log;
  Classes latency_ms;              ///< untraced successful ops
  Classes traced_latency_ms;       ///< traced successful ops
  Classes speedup;                 ///< same-work seq / op, per op
  std::vector<double> predicted;   ///< speedup_from_sp, per op
  /// Per-layer samples the workload records on traced ops.
  std::map<std::string, std::vector<double>> layer;
  std::uint64_t attempted = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t typed_errors = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t runs = 0;  ///< plan runs issued by successful ops
  double check_s = 0.0;    ///< verification and baseline time
  double wall_s = 0.0;
  std::string first_error;

  void record_error(const std::string& what, bool transport) {
    (transport ? transport_errors : typed_errors)++;
    if (first_error.empty()) first_error = what;
  }
};

/// Everything a workload hands to assemble().
struct Collected {
  std::vector<std::unique_ptr<Driver>> drivers;
  std::vector<double> setup_s;
  /// Per-layer values the workload derived itself (Stats deltas, set-up
  /// timings, per-loop tables).
  std::map<std::string, double> layer;
  std::vector<std::string> report;
};

double median_or_zero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : median(v);
}

double percentile_or_zero(const std::vector<double>& v, double q) {
  return percentile(v, q).value_or(0.0);
}

/// Geomean over classes of each class's percentile, so every structure
/// weighs the same and a mix of small and large loops does not put the
/// percentile in the gap between them.  nullopt when a class has too few
/// samples for the percentile.
std::optional<double> class_percentile(const Classes& classes, double q) {
  std::vector<double> per_class;
  for (const auto& [cls, samples] : classes) {
    const std::optional<double> p = percentile(samples, q);
    if (!p) return std::nullopt;
    per_class.push_back(*p);
  }
  if (per_class.empty()) return std::nullopt;
  return geomean(per_class);
}

/// Geomean over classes of each class's mean.
double class_mean(const Classes& classes) {
  std::vector<double> per_class;
  for (const auto& [cls, samples] : classes) {
    double sum = 0.0;
    for (const double v : samples) sum += v;
    per_class.push_back(sum / static_cast<double>(samples.size()));
  }
  return geomean(per_class);
}

/// A percentile the JSON must carry: refuse to report one read off too
/// few samples.
double required_percentile(const Classes& classes, double q,
                           const std::string& name) {
  const std::optional<double> p = class_percentile(classes, q);
  if (!p) {
    throw BenchAbort(name + ": too few samples in some class for this "
                     "percentile (need " + std::to_string(kMinSamplesBeyond) +
                     " beyond it); run longer");
  }
  return *p;
}

std::string fmt(double v) {
  std::ostringstream s;
  s.precision(6);
  s << v;
  return s.str();
}

std::string socket_path(const Options& o) {
  static std::atomic<int> counter{0};
  return o.run_dir + "/pb-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// The in-process PlanServer under test: shipped defaults, JIT on, Unix
/// socket.  Stopped (drained, joined, socket unlinked) on destruction.
class ServerUnderTest {
 public:
  explicit ServerUnderTest(const std::string& path) {
    mimd::PlanServerOptions so;
    so.socket_path = path;
    so.remove_existing = true;
    server_ = std::make_unique<mimd::PlanServer>(so);
    server_->start();
  }
  ~ServerUnderTest() { server_->stop(); }
  ServerUnderTest(const ServerUnderTest&) = delete;
  ServerUnderTest& operator=(const ServerUnderTest&) = delete;

  [[nodiscard]] const std::string& path() const {
    return server_->socket_path();
  }

 private:
  std::unique_ptr<mimd::PlanServer> server_;
};

mimd::PlanClient connect_client(const std::string& path) {
  mimd::PlanClient c = mimd::PlanClient::connect(path, kClientTimeoutMs);
  c.negotiate();
  return c;
}

/// Run `body(driver, op)` for op = 0, 1, ... on `threads` closed-loop
/// drivers until `seconds` have passed; an op started before the
/// deadline completes.  Op ids come from one shared counter, so op i is
/// the same op whichever driver draws it.  In trace mode blocks of
/// `block` ops (one balanced_pick() round) alternate between traced and
/// untraced, so the two halves see the same mix.
void drive(std::vector<std::unique_ptr<Driver>>& drivers, int threads,
           const Options& o, std::size_t block,
           const std::function<void(Driver&, std::uint64_t)>& body) {
  std::atomic<std::uint64_t> next{0};
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  for (int t = 0; t < threads; ++t) {
    drivers.push_back(std::make_unique<Driver>());
  }
  const auto loop = [&](Driver& d) {
    const std::int64_t t0 = now_ns();
    while (now_ns() < deadline) {
      const std::uint64_t op = next.fetch_add(1);
      d.log.set_enabled(o.trace && (op / block) % 2 == 1);
      ++d.attempted;
      try {
        body(d, op);
      } catch (const std::exception& e) {
        // The op's own handler could not recover (a reconnect failed):
        // count the op as failed and stop this driver.
        d.record_error(std::string("driver stopped: ") + e.what(), true);
        break;
      }
    }
    d.log.set_enabled(false);
    d.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  };
  if (threads == 1) {
    loop(*drivers[0]);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(loop, std::ref(*drivers[static_cast<std::size_t>(t)]));
  }
  for (std::thread& th : pool) th.join();
}

/// A successful op's end-to-end samples.
/// `seq_ms`, when the op timed one, is the same-work sequential run.
void record_success(Driver& d, std::size_t cls, double latency_ms,
                    std::optional<double> seq_ms, double predicted) {
  ++d.succeeded;
  (d.log.enabled() ? d.traced_latency_ms : d.latency_ms)[cls].push_back(
      latency_ms);
  if (seq_ms) d.speedup[cls].push_back(*seq_ms / latency_ms);
  d.predicted.push_back(predicted);
}

/// Map an op's exception to the failure taxonomy.  Returns true when the
/// connection should be re-opened.
bool classify_failure(Driver& d) {
  try {
    throw;
  } catch (const mimd::wire::WireError& e) {
    d.record_error(std::string("transport: ") + e.what(), true);
    return true;
  } catch (const mimd::RemoteError& e) {
    d.record_error(std::string("server: ") + e.what(), false);
  } catch (const std::exception& e) {
    d.record_error(e.what(), false);
  }
  return false;
}

double speedup_of(const Built& b) {
  return mimd::speedup_from_sp(b.result.percentage_parallelism);
}

std::map<std::string, double> stats_delta(const mimd::wire::StatsReply& a,
                                          const mimd::wire::StatsReply& b) {
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  return {
      {"hits", d(a.cache.hits, b.cache.hits)},
      {"misses", d(a.cache.misses, b.cache.misses)},
      {"runs", d(a.runs_executed, b.runs_executed)},
      {"gangs", d(a.pool_gangs, b.pool_gangs)},
      {"jit_compiles", d(a.jit_compiles, b.jit_compiles)},
      {"jit_failures", d(a.jit_failures, b.jit_failures)},
      {"jit_native", d(a.jit_native_runs, b.jit_native_runs)},
      {"jit_interpreted", d(a.jit_interpreted_runs, b.jit_interpreted_runs)},
      {"jit_pooled", d(a.jit_pooled_runs, b.jit_pooled_runs)},
      {"jit_ineligible", d(a.jit_ineligible_runs, b.jit_ineligible_runs)},
  };
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// trip_sweep

Collected run_trip_sweep(const Options& o) {
  Collected c;

  // Set-up: generate the structure pool, start the server and open the
  // connections, kSetups times; the last set stays up for the
  // measurement.
  std::vector<Structure> pool;
  std::unique_ptr<ServerUnderTest> server;
  std::vector<mimd::PlanClient> clients;
  for (int s = 0; s < kSetups; ++s) {
    clients.clear();
    server.reset();
    const std::int64_t t0 = now_ns();
    pool = trip_sweep_pool();
    server = std::make_unique<ServerUnderTest>(socket_path(o));
    for (int i = 0; i < kClients; ++i) {
      clients.push_back(connect_client(server->path()));
    }
    c.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  mimd::PlanClient observer = connect_client(server->path());
  const mimd::wire::StatsReply before = observer.stats();

  drive(c.drivers, kClients, o, pool.size(),
        [&](Driver& d, std::uint64_t op) {
    const std::size_t ci = &d == c.drivers[0].get() ? 0 : 1;
    mimd::PlanClient& client = clients[ci];
    const OpSpec spec = trip_sweep_op(o.seed, op, pool.size());
    const Structure& st = pool[spec.structure];
    try {
      struct Strand {
        Built built;
        std::uint64_t id = 0;
        ExecutionResult result;
      };
      std::vector<Strand> strands;
      int rewrites = 0;
      const std::int64_t t0 = now_ns();
      {
        const SpanLog::Scope span(d.log, "op", op);
        for (Built& b : build_programs(st, spec.n, kServedMachine, d.log, op,
                                       &rewrites)) {
          Strand s{std::move(b), 0, {}};
          {
            const SpanLog::Scope sub(d.log, "plan_client.submit", op);
            s.id = client
                       .submit_program(s.built.result.program,
                                       s.built.result.normalized.graph,
                                       s.built.copts)
                       .program_id;
          }
          {
            const SpanLog::Scope run(d.log, "plan_client.first_run", op);
            s.result = client.run(s.id);
          }
          strands.push_back(std::move(s));
        }
      }
      const double latency = ms_between(t0, now_ns());

      if (d.log.enabled()) {
        // Counts, read off the op's own inputs and outputs after its
        // timed interval.
        double program_ops = 0.0;
        for (const Strand& s : strands) {
          program_ops += static_cast<double>(s.built.result.program.total_ops());
          d.layer["wire.submit_bytes"].push_back(static_cast<double>(
              mimd::wire::encode_submit_program({s.built.result.program,
                                                 s.built.result.normalized.graph,
                                                 s.built.copts})
                  .size()));
          d.layer["wire.reply_bytes"].push_back(static_cast<double>(
              mimd::wire::encode_run_reply(s.result).size()));
          d.layer["server.first_exec_ms.p50"].push_back(s.result.wall_seconds *
                                                    1e3);
        }
        d.layer["core.program_ops"].push_back(program_ops);
        if (!st.graph) {
          d.layer["opt.rewrites"].push_back(static_cast<double>(rewrites));
        }
      }

      const std::int64_t v0 = now_ns();
      bool match = true;
      double seq_ms = 0.0;
      {
        const SpanLog::Scope verify(d.log, "verify", op);
        for (const Strand& s : strands) {
          const auto& r = s.built.result;
          const std::int64_t b0 = now_ns();
          ExecutionResult ref;
          {
            const SpanLog::Scope seq(d.log, "baseline.seq", op);
            ref = mimd::run_reference(r.normalized.graph,
                                      r.normalized_iterations);
          }
          seq_ms += ms_between(b0, now_ns());
          match = match && mimd::values_match(s.result, ref,
                                              r.normalized_iterations);
        }
      }
      d.check_s += static_cast<double>(now_ns() - v0) * 1e-9;

      for (const Strand& s : strands) {
        const SpanLog::Scope drop(d.log, "plan_client.drop", op);
        client.drop_program(s.id);
      }
      if (!match) {
        ++d.mismatches;
        if (d.first_error.empty()) {
          d.first_error = "result mismatch vs run_reference on " + st.name +
                          " n=" + std::to_string(spec.n);
        }
        return;
      }
      std::vector<double> predicted;
      for (const Strand& s : strands) predicted.push_back(speedup_of(s.built));
      d.runs += strands.size();
      record_success(d, 0, latency, seq_ms, geomean(predicted));
    } catch (...) {
      if (classify_failure(d)) clients[ci] = connect_client(server->path());
    }
  });

  const mimd::wire::StatsReply after = observer.stats();
  const auto delta = stats_delta(before, after);
  double runs = 0.0;
  for (const auto& d : c.drivers) runs += static_cast<double>(d->runs);
  c.layer["plan_cache.hit_ratio"] = 1.0 - ratio(delta.at("misses"), runs);
  c.layer["jit.compiles"] = delta.at("jit_compiles");
  c.layer["jit.failures"] = delta.at("jit_failures");
  c.layer["jit.native_runs_per_compile"] =
      ratio(delta.at("jit_native"), delta.at("jit_compiles"));
  c.layer["pool.gangs_per_run"] = ratio(delta.at("gangs"), delta.at("runs"));
  c.layer["pool.workers"] = static_cast<double>(after.pool_workers);

  const auto self = self_ms_by_name([&] {
    std::vector<const SpanLog*> logs;
    for (const auto& d : c.drivers) logs.push_back(&d->log);
    return logs;
  }());
  const auto get = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? std::vector<double>{} : it->second;
  };
  c.layer["ir.parse_ms"] = median_or_zero(get("ir.parse"));
  c.layer["ir.if_convert_ms"] = median_or_zero(get("ir.if_convert"));
  c.layer["opt.optimize_ms"] = median_or_zero(get("opt.optimize"));
  c.layer["ir.dependence_ms"] = median_or_zero(get("ir.dependence"));
  c.layer["core.parallelize_ms.p50"] = median_or_zero(get("core.parallelize"));
  c.layer["core.parallelize_ms.p90"] =
      percentile_or_zero(get("core.parallelize"), 0.90);
  c.layer["plan_client.submit_ms.p50"] =
      median_or_zero(get("plan_client.submit"));
  c.layer["plan_client.submit_ms.p90"] =
      percentile_or_zero(get("plan_client.submit"), 0.90);
  c.layer["plan_client.first_run_ms.p50"] =
      median_or_zero(get("plan_client.first_run"));
  c.layer["plan_client.drop_ms"] = median_or_zero(get("plan_client.drop"));

  c.report.push_back("trip_sweep: " + std::to_string(pool.size()) +
                     " structures, n log-uniform in [" +
                     std::to_string(kTripMin) + ", " +
                     std::to_string(kTripMax) + "], " +
                     std::to_string(kClients) + " clients, p=2 k=1");
  c.report.push_back("trip_sweep: daemon-wide jit " + fmt(delta.at("jit_compiles")) +
                     " compiles, " + fmt(delta.at("jit_native")) +
                     " native runs, " + fmt(delta.at("misses")) +
                     " cache misses over " + fmt(runs) + " runs");
  return c;
}

// ---------------------------------------------------------------------------
// warm_native

Collected run_warm_native(const Options& o) {
  Collected c;
  const std::vector<Structure> hot = paper_structures();
  const bool jit = mimd::jit_available();

  std::unique_ptr<ServerUnderTest> server;
  std::vector<mimd::PlanClient> clients;
  std::vector<std::vector<std::uint64_t>> ids;  // [client][structure]
  std::vector<Built> built;
  std::vector<double> jit_wait_s;
  SpanLog untraced;
  for (int s = 0; s < kWarmSetups; ++s) {
    clients.clear();
    server.reset();
    ids.assign(kClients, {});
    built.clear();
    const std::int64_t t0 = now_ns();
    server = std::make_unique<ServerUnderTest>(socket_path(o));
    for (int i = 0; i < kClients; ++i) {
      clients.push_back(connect_client(server->path()));
    }
    for (const Structure& st : hot) {
      std::vector<Built> b = build_programs(st, kWarmTrip, kServedMachine,
                                            untraced, 0);
      built.push_back(std::move(b.front()));
    }
    for (int i = 0; i < kClients; ++i) {
      for (const Built& b : built) {
        ids[static_cast<std::size_t>(i)].push_back(
            clients[static_cast<std::size_t>(i)]
                .submit_program(b.result.program, b.result.normalized.graph,
                                b.copts)
                .program_id);
      }
    }
    // Wait, with a deadline, until every hot structure's kernel is
    // published: otherwise the timed runs would measure the interpreter.
    const std::int64_t w0 = now_ns();
    if (jit) {
      mimd::PlanClient probe = connect_client(server->path());
      for (;;) {
        const mimd::wire::StatsReply st = probe.stats();
        if (st.jit_failures > 0) {
          throw BenchAbort("warm_native: " + std::to_string(st.jit_failures) +
                           " hot-set kernel compile(s) failed");
        }
        if (st.jit_compiles >= hot.size() && st.jit_in_flight == 0) break;
        if (static_cast<double>(now_ns() - w0) * 1e-9 > kJitDeadlineS) {
          throw BenchAbort("warm_native: only " +
                           std::to_string(st.jit_compiles) + " of " +
                           std::to_string(hot.size()) +
                           " native kernels published within " +
                           fmt(kJitDeadlineS) + " s");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    const std::int64_t t1 = now_ns();
    jit_wait_s.push_back(static_cast<double>(t1 - w0) * 1e-9);
    c.setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
  }

  // Sequential references (not set-up: the benchmark's own oracle).
  std::vector<ExecutionResult> refs;
  for (const Built& b : built) {
    refs.push_back(mimd::run_reference(b.result.normalized.graph,
                                       b.result.normalized_iterations));
  }
  // Warm-up: every connection runs every structure once, checked.
  for (int i = 0; i < kClients; ++i) {
    for (std::size_t k = 0; k < built.size(); ++k) {
      const ExecutionResult r =
          clients[static_cast<std::size_t>(i)].run(
              ids[static_cast<std::size_t>(i)][k]);
      if (!mimd::values_match(r, refs[k],
                              built[k].result.normalized_iterations)) {
        throw BenchAbort("warm_native: warm-up run of " + hot[k].name +
                         " does not match run_reference");
      }
    }
  }

  mimd::PlanClient observer = connect_client(server->path());
  const mimd::wire::StatsReply before = observer.stats();
  drive(c.drivers, kClients, o, built.size(),
        [&](Driver& d, std::uint64_t op) {
    const std::size_t ci = &d == c.drivers[0].get() ? 0 : 1;
    const std::size_t k = balanced_pick(o.seed, 3, op, built.size());
    const Built& b = built[k];
    try {
      ExecutionResult r;
      const std::int64_t t0 = now_ns();
      {
        const SpanLog::Scope span(d.log, "op", op);
        const SpanLog::Scope run(d.log, "plan_client.run", op);
        r = clients[ci].run(ids[ci][k]);
      }
      const double latency = ms_between(t0, now_ns());
      if (d.log.enabled()) {
        const double exec = r.wall_seconds * 1e3;
        d.layer["server.exec_ms"].push_back(exec);
        d.layer["wire.overhead_ms"].push_back(latency - exec);
        d.layer["wire.reply_bytes"].push_back(
            static_cast<double>(mimd::wire::encode_run_reply(r).size()));
      }
      const std::int64_t v0 = now_ns();
      bool match = false;
      std::optional<double> seq_ms;
      {
        const SpanLog::Scope verify(d.log, "verify", op);
        match = mimd::values_match(r, refs[k], b.result.normalized_iterations);
        if (op % kSeqEvery == 0) {
          const SpanLog::Scope seq(d.log, "baseline.seq", op);
          const std::int64_t b0 = now_ns();
          (void)mimd::run_reference(b.result.normalized.graph,
                                    b.result.normalized_iterations);
          seq_ms = ms_between(b0, now_ns());
        }
      }
      d.check_s += static_cast<double>(now_ns() - v0) * 1e-9;
      if (!match) {
        ++d.mismatches;
        if (d.first_error.empty()) {
          d.first_error = "result mismatch vs run_reference on " + hot[k].name;
        }
        return;
      }
      ++d.runs;
      record_success(d, k, latency, seq_ms, speedup_of(b));
    } catch (...) {
      if (classify_failure(d)) clients[ci] = connect_client(server->path());
    }
  });
  const mimd::wire::StatsReply after = observer.stats();
  const auto delta = stats_delta(before, after);

  if (jit && delta.at("jit_interpreted") > 0.0) {
    throw BenchAbort("warm_native: " + fmt(delta.at("jit_interpreted")) +
                     " timed runs were served interpreted while the JIT is "
                     "available (" + fmt(delta.at("jit_ineligible")) +
                     " ineligible)");
  }

  double runs = 0.0;
  for (const auto& d : c.drivers) runs += static_cast<double>(d->runs);
  std::vector<double> exec;
  std::vector<double> overhead;
  for (const auto& d : c.drivers) {
    const auto& e = d->layer["server.exec_ms"];
    exec.insert(exec.end(), e.begin(), e.end());
    const auto& w = d->layer["wire.overhead_ms"];
    overhead.insert(overhead.end(), w.begin(), w.end());
  }
  c.layer["server.exec_ms.p50"] = median_or_zero(exec);
  c.layer["server.exec_ms.p99"] = percentile_or_zero(exec, 0.99);
  c.layer["wire.overhead_ms.p50"] = median_or_zero(overhead);
  c.layer["wire.overhead_ms.p99"] = percentile_or_zero(overhead, 0.99);
  c.layer["plan_cache.hit_ratio"] = 1.0 - ratio(delta.at("misses"), runs);
  c.layer["jit.compiles"] = delta.at("jit_compiles");
  c.layer["jit.failures"] = delta.at("jit_failures");
  c.layer["jit.native_runs_per_compile"] =
      ratio(delta.at("jit_native"), delta.at("jit_compiles"));
  c.layer["jit.native_share"] = ratio(delta.at("jit_native"), delta.at("runs"));
  c.layer["jit.pooled_share"] = ratio(delta.at("jit_pooled"), delta.at("runs"));
  c.layer["jit.ineligible_runs"] = delta.at("jit_ineligible");
  c.layer["pool.gangs_per_run"] = ratio(delta.at("gangs"), delta.at("runs"));
  c.layer["pool.workers"] = static_cast<double>(after.pool_workers);
  c.layer["setup.jit_wait_s"] = median(jit_wait_s);

  c.report.push_back(
      "warm_native: " + std::to_string(hot.size()) + " hot structures at n=" +
      std::to_string(kWarmTrip) + ", " + std::to_string(kClients) +
      " clients, p=2 k=1, jit_available=" + (jit ? "true" : "false") +
      (jit ? "" : " (" + mimd::jit_unavailable_reason() + ")"));
  c.report.push_back("warm_native: " + fmt(delta.at("jit_native")) +
                     " native (" + fmt(delta.at("jit_pooled")) + " pooled) / " +
                     fmt(delta.at("jit_interpreted")) +
                     " interpreted timed runs; set-up jit wait median " +
                     fmt(median(jit_wait_s)) + " s");
  return c;
}

// ---------------------------------------------------------------------------
// coarse_grain

Collected run_coarse_grain(const Options& o) {
  Collected c;
  const std::vector<Structure> loops = paper_structures();

  struct Loop {
    Built built;
    std::shared_ptr<const mimd::ExecutorPlan> plan;
  };
  std::vector<Loop> plans;
  std::unique_ptr<mimd::PlanCache> cache;
  std::unique_ptr<mimd::WorkerPool> pool;
  std::vector<double> compile_ms;
  SpanLog untraced;
  for (int s = 0; s < kSetups; ++s) {
    plans.clear();
    pool.reset();
    cache.reset();
    const std::int64_t t0 = now_ns();
    cache = std::make_unique<mimd::PlanCache>();
    pool = std::make_unique<mimd::WorkerPool>();
    double compile = 0.0;
    for (const Structure& st : loops) {
      Loop l{std::move(build_programs(st, kCoarseTrip, kCoarseMachine,
                                      untraced, 0)
                           .front()),
             nullptr};
      const std::int64_t c0 = now_ns();
      l.plan = cache->get_or_compile(l.built.result.program,
                                     l.built.result.normalized.graph,
                                     l.built.copts);
      compile += ms_between(c0, now_ns());
      plans.push_back(std::move(l));
    }
    compile_ms.push_back(compile);
    c.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  const mimd::PlanCache::Stats cache_before = cache->stats();
  const std::uint64_t gangs_before = pool->gangs_run();
  mimd::KernelOptions work;
  work.work_per_cycle = kCoarseWork;
  drive(c.drivers, 1, o, plans.size(), [&](Driver& d, std::uint64_t op) {
    const std::size_t k = balanced_pick(o.seed, 4, op, plans.size());
    const Loop& l = plans[k];
    const auto& r = l.built.result;
    try {
      mimd::PlanJob job;
      job.plan = l.plan;
      job.iterations = r.normalized_iterations;
      job.ropts.kernel = work;
      ExecutionResult par;
      const std::int64_t t0 = now_ns();
      {
        const SpanLog::Scope span(d.log, "op", op);
        const SpanLog::Scope run(d.log, "executor.run", op);
        par = std::move(mimd::run_plans({job}, *pool, 1).front());
      }
      const std::int64_t t1 = now_ns();
      ExecutionResult seq;
      {
        const SpanLog::Scope span(d.log, "baseline.seq", op);
        seq = mimd::run_reference(r.normalized.graph, r.normalized_iterations,
                                  work);
      }
      const std::int64_t t2 = now_ns();
      bool match = false;
      {
        const SpanLog::Scope verify(d.log, "verify", op);
        match = mimd::values_match(par, seq, r.normalized_iterations);
      }
      // The sequential run is half of the op here, not part of the check.
      d.check_s += static_cast<double>(now_ns() - t2) * 1e-9;
      const double par_ms = ms_between(t0, t1);
      const double seq_ms = ms_between(t1, t2);
      if (!match) {
        ++d.mismatches;
        if (d.first_error.empty()) {
          d.first_error = "result mismatch vs run_reference on " + loops[k].name;
        }
        return;
      }
      if (d.log.enabled()) {
        d.layer["executor.run_ms." + loops[k].name].push_back(par_ms);
        d.layer["baseline.seq_ms." + loops[k].name].push_back(seq_ms);
      }
      ++d.runs;
      record_success(d, k, par_ms, seq_ms, speedup_of(l.built));
    } catch (...) {
      classify_failure(d);
    }
  });

  Driver& d = *c.drivers.front();
  c.layer["plan_cache.hit_ratio"] =
      1.0 - ratio(static_cast<double>(cache->stats().misses - cache_before.misses),
                  static_cast<double>(d.runs));
  c.layer["pool.gangs_per_run"] =
      ratio(static_cast<double>(pool->gangs_run() - gangs_before),
            static_cast<double>(d.runs));
  c.layer["pool.workers"] = static_cast<double>(pool->num_workers());
  c.layer["partition.compile_ms"] = median(compile_ms);
  for (std::size_t k = 0; k < loops.size(); ++k) {
    const std::string& name = loops[k].name;
    const double par = median_or_zero(d.layer["executor.run_ms." + name]);
    const double seq = median_or_zero(d.layer["baseline.seq_ms." + name]);
    const auto& r = plans[k].built.result;
    c.layer["executor.run_ms." + name] = par;
    c.layer["baseline.seq_ms." + name] = seq;
    c.layer["coarse." + name + ".speedup"] = ratio(seq, par);
    c.layer["coarse." + name + ".predicted_speedup"] =
        speedup_of(plans[k].built);
    c.layer["schedule.cycles_per_iteration." + name] = r.cycles_per_iteration;
  }
  c.report.push_back("coarse_grain: " + std::to_string(loops.size()) +
                     " loops at n=" + std::to_string(kCoarseTrip) +
                     ", work_per_cycle=" + std::to_string(kCoarseWork) +
                     ", one driver, p=3 k=1");
  return c;
}

// ---------------------------------------------------------------------------
// Assembly

std::vector<double> concat(const std::vector<std::unique_ptr<Driver>>& drivers,
                           std::vector<double> Driver::*field) {
  std::vector<double> out;
  for (const auto& d : drivers) {
    const auto& v = (*d).*field;
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

Classes merge(const std::vector<std::unique_ptr<Driver>>& drivers,
              Classes Driver::*field) {
  Classes out;
  for (const auto& d : drivers) {
    for (const auto& [cls, v] : (*d).*field) {
      out[cls].insert(out[cls].end(), v.begin(), v.end());
    }
  }
  return out;
}

std::size_t count(const Classes& classes) {
  std::size_t n = 0;
  for (const auto& [cls, v] : classes) n += v.size();
  return n;
}

std::vector<Metric> pick_metrics(const std::vector<MetricSpec>& specs,
                                 const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const MetricSpec& s : specs) {
    const auto it = values.find(s.name);
    out.push_back({s.name, it == values.end() ? 0.0 : it->second, s.unit});
  }
  return out;
}

/// The names README.md gives each workload's end-to-end metrics.
struct Alias {
  const char* alias;
  const char* name;
  const char* unit;
};

std::vector<Alias> aliases(const std::string& workload) {
  if (workload == "trip_sweep") {
    return {{"first_result_ms.p50", "latency_ms.p50", "ms"},
            {"first_result_ms.p90", "latency_ms.p90", "ms"},
            {"builds_per_s", "ops_per_s", "op/s"}};
  }
  if (workload == "warm_native") {
    return {{"run_ms.p50", "latency_ms.p50", "ms"},
            {"run_ms.p90", "latency_ms.p90", "ms"},
            {"run_ms.p99", "latency_ms.p99", "ms"},
            {"runs_per_s", "ops_per_s", "op/s"}};
  }
  return {{"parallel_run_ms.p50", "latency_ms.p50", "ms"},
          {"parallel_run_ms.p90", "latency_ms.p90", "ms"},
          {"speedup_vs_seq", "speedup_vs_seq", "x"},
          {"predicted_speedup", "predicted_speedup", "x"}};
}

Outcome assemble(const Options& o, Collected c) {
  Outcome out;
  std::uint64_t succeeded = 0;
  std::uint64_t typed = 0;
  std::uint64_t transport = 0;
  double ops_per_s = 0.0;
  std::string first_error;
  for (const auto& d : c.drivers) {
    out.attempted += d->attempted;
    out.mismatches += d->mismatches;
    succeeded += d->succeeded;
    typed += d->typed_errors;
    transport += d->transport_errors;
    // Each driver's rate with its verification time taken out, summed.
    ops_per_s += ratio(static_cast<double>(d->succeeded), d->wall_s - d->check_s);
    if (first_error.empty()) first_error = d->first_error;
  }
  out.failed = out.attempted - succeeded;
  const double failed_ratio =
      ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted));

  const Classes lat = merge(c.drivers, &Driver::latency_ms);
  const Classes traced = merge(c.drivers, &Driver::traced_latency_ms);
  std::map<std::string, double> values;
  std::ostringstream counts;
  counts << o.workload << ": attempted " << out.attempted << ", failed "
         << out.failed << " (" << out.mismatches << " mismatches, " << typed
         << " typed errors, " << transport << " transport errors), "
         << "failed_ratio " << fmt(failed_ratio);
  out.report = std::move(c.report);
  out.report.push_back(counts.str());
  if (!first_error.empty()) {
    out.report.push_back(o.workload + ": first failure: " + first_error);
  }
  if (succeeded == 0) {
    throw BenchAbort(o.workload + ": no op succeeded" +
                     (first_error.empty() ? "" : " (" + first_error + ")"));
  }

  if (!o.trace) {
    values["setup_s"] = median(c.setup_s);
    values["latency_ms.p50"] = required_percentile(lat, 0.50, "latency_ms.p50");
    values["ops_per_s"] = ops_per_s;
    values["speedup_vs_seq"] = required_percentile(
        merge(c.drivers, &Driver::speedup), 0.5, "speedup_vs_seq");
    values["predicted_speedup"] =
        geomean(concat(c.drivers, &Driver::predicted));
    out.metrics = pick_metrics(end_to_end_metrics(), values);
    // Tail percentiles are reported, not gated: on a shared VM they move
    // too much from run to run (see README.md).
    for (const auto& [name, q] : {std::pair{"latency_ms.p90", 0.90},
                                  std::pair{"latency_ms.p99", 0.99}}) {
      if (const auto p = class_percentile(lat, q)) values[name] = *p;
    }
    for (const Alias& a : aliases(o.workload)) {
      const auto it = values.find(a.name);
      if (it != values.end()) {
        out.report.push_back(o.workload + ": " + a.alias + " = " +
                             fmt(it->second) + " " + a.unit + " (" + a.name +
                             ", " + std::to_string(count(lat)) + " samples)");
      }
    }
  } else {
    values = std::move(c.layer);
    values["process.peak_rss_mb"] = peak_rss_mb();
    // Verification is kept out of every end-to-end timing; report its
    // own cost here (whole check, reference included).
    std::vector<const SpanLog*> logs;
    for (const auto& d : c.drivers) logs.push_back(&d->log);
    const auto totals = total_ms_by_name(logs);
    if (const auto it = totals.find("verify"); it != totals.end()) {
      values["verify_ms"] = median(it->second);
    }
    for (const auto& d : c.drivers) {
      for (const auto& [name, samples] : d->layer) {
        if (values.count(name) == 0 && !samples.empty()) {
          values[name] = median(samples);
        }
      }
    }
    // Traced minus untraced ops of the same run, same op mix.  Means,
    // not medians: each half is a fixed set of ops, and the median of a
    // wide mix moves more with op-to-op noise than a span's cost.
    if (!lat.empty() && lat.size() == traced.size()) {
      const double base = class_mean(lat);
      const double with = class_mean(traced);
      values["trace.overhead_ms"] = with - base;
      values["trace.overhead_share"] = (with - base) / base;
    }
    out.metrics = pick_metrics(per_layer_metrics(), values);
    out.report.push_back(o.workload + ": traced " +
                         std::to_string(count(traced)) + " ops, untraced " +
                         std::to_string(count(lat)) + " ops");
  }

  for (auto& d : c.drivers) {
    out.logs.push_back(std::make_unique<SpanLog>(std::move(d->log)));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public pieces

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},
      {"latency_ms.p50", "ms", "lower"},
      {"ops_per_s", "op/s", "higher"},
      {"speedup_vs_seq", "x", "higher"},
      {"predicted_speedup", "x", "higher"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        {"verify_ms", "ms", "lower"},
        {"process.peak_rss_mb", "MB", "lower"},
        {"trace.overhead_ms", "ms", "lower"},
        {"trace.overhead_share", "ratio", "lower"},
        {"ir.parse_ms", "ms", "lower"},
        {"ir.if_convert_ms", "ms", "lower"},
        {"opt.optimize_ms", "ms", "lower"},
        {"opt.rewrites", "count", "higher"},
        {"ir.dependence_ms", "ms", "lower"},
        {"core.parallelize_ms.p50", "ms", "lower"},
        {"core.parallelize_ms.p90", "ms", "lower"},
        {"core.program_ops", "count", "lower"},
        {"wire.submit_bytes", "bytes", "lower"},
        {"plan_client.submit_ms.p50", "ms", "lower"},
        {"plan_client.submit_ms.p90", "ms", "lower"},
        {"plan_client.first_run_ms.p50", "ms", "lower"},
        {"server.first_exec_ms.p50", "ms", "lower"},
        {"plan_client.drop_ms", "ms", "lower"},
        {"plan_cache.hit_ratio", "ratio", "higher"},
        {"jit.compiles", "count", "lower"},
        {"jit.failures", "count", "lower"},
        {"jit.native_runs_per_compile", "ratio", "higher"},
        {"server.exec_ms.p50", "ms", "lower"},
        {"server.exec_ms.p99", "ms", "lower"},
        {"wire.overhead_ms.p50", "ms", "lower"},
        {"wire.overhead_ms.p99", "ms", "lower"},
        {"wire.reply_bytes", "bytes", "lower"},
        {"jit.native_share", "ratio", "higher"},
        {"jit.pooled_share", "ratio", "higher"},
        {"jit.ineligible_runs", "count", "lower"},
        {"pool.gangs_per_run", "count", "lower"},
        {"pool.workers", "count", "lower"},
        {"setup.jit_wait_s", "s", "lower"},
        {"partition.compile_ms", "ms", "lower"},
    };
    // Per-loop coarse_grain tables.  The names outlive the vector: they
    // are interned in a static list below.
    static std::vector<std::string> names;
    for (const Structure& st : paper_structures()) {
      names.push_back("executor.run_ms." + st.name);
      names.push_back("baseline.seq_ms." + st.name);
      names.push_back("coarse." + st.name + ".speedup");
      names.push_back("coarse." + st.name + ".predicted_speedup");
      names.push_back("schedule.cycles_per_iteration." + st.name);
    }
    static const char* const units[] = {"ms", "ms", "x", "x", "cycles"};
    static const char* const better[] = {"lower", "lower", "higher", "higher",
                                         "lower"};
    for (std::size_t i = 0; i < names.size(); ++i) {
      s.push_back({names[i].c_str(), units[i % 5], better[i % 5]});
    }
    return s;
  }();
  return specs;
}

std::vector<Structure> paper_structures() {
  namespace w = mimd::workloads;
  std::vector<Structure> out;
  out.push_back({"fig7", w::fig7_loop(), ""});
  out.push_back({"cytron86", w::cytron86_loop(), ""});
  out.push_back({"elliptic", w::elliptic_filter_loop(), ""});
  for (auto& [name, g] : w::livermore_suite()) {
    out.push_back({name, std::move(g), ""});
  }
  return out;
}

std::vector<Structure> trip_sweep_pool() {
  std::vector<Structure> out = paper_structures();
  for (std::size_t j = 0; j < kTextLoops; ++j) {
    const mimd::testsupport::GeneratedIrLoop g =
        mimd::testsupport::random_ir_loop(mix(kCorpusSeed, 1000003 + j));
    out.push_back({g.tag, std::nullopt, g.source});
  }
  return out;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t i) {
  // splitmix64 over a seed-and-index combination.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + i + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::size_t balanced_pick(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t i, std::size_t size) {
  const std::uint64_t block = i / size;
  std::vector<std::size_t> perm(size);
  for (std::size_t k = 0; k < size; ++k) perm[k] = k;
  // Fisher-Yates, one seeded draw per position.
  for (std::size_t k = size; k > 1; --k) {
    const std::uint64_t h = mix(seed ^ (stream << 48), block * size + k);
    std::swap(perm[k - 1], perm[h % k]);
  }
  return perm[i % size];
}

OpSpec trip_sweep_op(std::uint64_t seed, std::uint64_t i,
                     std::size_t pool_size) {
  OpSpec spec;
  spec.structure = balanced_pick(seed, 1, i, pool_size);
  const double stratum =
      static_cast<double>((spec.structure + i / pool_size) % pool_size);
  const double u = (stratum + uniform01(mix(seed, i))) /
                   static_cast<double>(pool_size);
  const double lo = std::log(static_cast<double>(kTripMin));
  const double hi = std::log(static_cast<double>(kTripMax));
  spec.n = static_cast<std::int64_t>(std::llround(std::exp(lo + u * (hi - lo))));
  return spec;
}

std::vector<Built> build_programs(const Structure& s, std::int64_t n,
                                  const mimd::Machine& machine, SpanLog& log,
                                  std::uint64_t op, int* rewrites) {
  mimd::ParallelizeOptions po;
  po.machine = machine;
  po.iterations = n;
  po.emit_code = false;
  std::vector<Built> out;
  if (s.graph) {
    const SpanLog::Scope span(log, "core.parallelize", op);
    out.push_back({mimd::parallelize(*s.graph, po), {}});
    return out;
  }
  const mimd::ir::Loop raw = [&] {
    const SpanLog::Scope span(log, "ir.parse", op);
    return mimd::ir::parse_loop(s.source);
  }();
  const mimd::ir::Loop loop = [&] {
    if (!raw.has_control_flow()) return raw;
    const SpanLog::Scope span(log, "ir.if_convert", op);
    return mimd::ir::if_convert(raw);
  }();
  const mimd::opt::PipelineResult pipe = [&] {
    const SpanLog::Scope span(log, "opt.optimize", op);
    return mimd::opt::optimize(loop);
  }();
  if (rewrites != nullptr) {
    for (const auto& st : pipe.stats) *rewrites += st.rewrites;
  }
  mimd::CompileOptions copts;
  copts.opt = mimd::OptLevel::O1;
  for (const mimd::ir::Loop& strand : pipe.loops) {
    const mimd::ir::DependenceResult dep = [&] {
      const SpanLog::Scope span(log, "ir.dependence", op);
      return mimd::ir::analyze_dependences(strand);
    }();
    const SpanLog::Scope span(log, "core.parallelize", op);
    out.push_back({mimd::parallelize(dep.graph, po), copts});
  }
  return out;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"trip_sweep", "warm_native",
                                                 "coarse_grain"};
  return names;
}

Outcome run_workload(const Options& opts) {
  if (opts.workload == "trip_sweep") return assemble(opts, run_trip_sweep(opts));
  if (opts.workload == "warm_native") {
    return assemble(opts, run_warm_native(opts));
  }
  if (opts.workload == "coarse_grain") {
    return assemble(opts, run_coarse_grain(opts));
  }
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

}  // namespace perfbench
