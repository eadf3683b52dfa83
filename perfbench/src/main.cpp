// perfbench — run one benchmark workload and print its metrics.
//
//   perfbench --workload <trip_sweep|warm_native|coarse_grain> --seed <n>
//             --seconds <s> --trace <0|1> [--run-dir <dir>]
//             [--spans-out <file>]
//   perfbench --list-metrics
//
// Every line but the last is for people: the host stamp, then the
// workload's metrics under their documented names and the failure
// breakdown.  The last line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exit codes: 0 ok, 1 a result did not match the
// sequential reference (the JSON is still printed), 2 bad arguments,
// 3 the benchmark could not measure what it claims (no JSON).
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "host.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "perfbench: " << msg << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--run-dir <dir>] [--spans-out <file>]\n"
               "       perfbench --list-metrics\n";
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::ostringstream out;
  out << '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out << '\\' << ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out << "\\u" << std::hex << std::setw(4) << std::setfill('0')
          << static_cast<int>(ch) << std::dec;
    } else {
      out << ch;
    }
  }
  out << '"';
  return out.str();
}

void list_metrics() {
  const auto print = [](const char* key,
                        const std::vector<perfbench::MetricSpec>& specs) {
    std::cout << json_string(key) << ": [\n";
    for (std::size_t i = 0; i < specs.size(); ++i) {
      std::cout << "  {\"name\": " << json_string(specs[i].name)
                << ", \"unit\": " << json_string(specs[i].unit)
                << ", \"better\": " << json_string(specs[i].better) << "}"
                << (i + 1 < specs.size() ? "," : "") << "\n";
    }
    std::cout << "]";
  };
  std::cout << "{\n";
  print("end_to_end", perfbench::end_to_end_metrics());
  std::cout << ",\n";
  print("per_layer", perfbench::per_layer_metrics());
  std::cout << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string spans_out;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opts.workload = v;
        have_workload = true;
      } else if (a == "--seed") {
        opts.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opts.seconds = std::stod(v);
        have_seconds = opts.seconds > 0.0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opts.trace = v == "1";
        have_trace = true;
      } else if (a == "--run-dir") {
        opts.run_dir = v;
      } else if (a == "--spans-out") {
        spans_out = v;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  bool known = false;
  for (const std::string& w : perfbench::workload_names()) {
    known = known || w == opts.workload;
  }
  if (!known) usage("unknown workload " + opts.workload);

  const std::string stamp =
      perfbench::format_stamp(perfbench::host_stamp(opts.seed));
  std::cout << "host: " << stamp << "\n" << std::flush;

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(opts);
  } catch (const perfbench::BenchAbort& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 3;
  }

  if (!spans_out.empty() && opts.trace) {
    std::ofstream f(spans_out);
    std::vector<const perfbench::SpanLog*> logs;
    for (const auto& l : out.logs) logs.push_back(l.get());
    perfbench::write_spans(f, "perfbench " + opts.workload + "; " + stamp,
                           logs);
    if (!f) {
      std::cerr << "perfbench: cannot write spans to " << spans_out << "\n";
      return 3;
    }
    std::cout << "spans: " << spans_out << "\n";
  }

  for (const std::string& line : out.report) std::cout << line << "\n";
  std::cout << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const perfbench::Metric& m : out.metrics) {
    std::cout << "metric " << m.name << " " << m.value << " " << m.unit
              << "\n";
  }

  const bool correct = out.mismatches == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    std::cout << (i > 0 ? ", " : "") << json_string(m.name)
              << ": {\"value\": " << m.value
              << ", \"unit\": " << json_string(m.unit) << "}";
  }
  std::cout << "}}\n" << std::flush;
  return correct ? 0 : 1;
}
