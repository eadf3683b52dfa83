#include "host.hpp"

#include <sys/resource.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "runtime/jit_compiler.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// First line of `cc --version`: the toolchain the JIT compiles with.
std::string jit_cc_version() {
  FILE* p = ::popen("cc --version 2>/dev/null", "r");
  if (p == nullptr) return "unavailable";
  std::array<char, 256> buf{};
  std::string first = std::fgets(buf.data(), buf.size(), p) != nullptr
                          ? std::string(buf.data())
                          : std::string("unavailable");
  while (std::fgets(buf.data(), buf.size(), p) != nullptr) {
  }
  ::pclose(p);
  while (!first.empty() && (first.back() == '\n' || first.back() == '\r')) {
    first.pop_back();
  }
  return first;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> host_stamp(
    std::uint64_t seed) {
  std::vector<std::pair<std::string, std::string>> s;
  s.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  s.emplace_back("cpu", cpu_model());
  s.emplace_back("compiler", compiler());
  s.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  const bool jit = mimd::jit_available();
  s.emplace_back("jit_available", jit ? "true" : "false");
  if (!jit) s.emplace_back("jit_unavailable_reason", mimd::jit_unavailable_reason());
  s.emplace_back("jit_cc", jit_cc_version());
  s.emplace_back("seed", std::to_string(seed));
  return s;
}

std::string format_stamp(
    const std::vector<std::pair<std::string, std::string>>& stamp) {
  std::ostringstream out;
  for (std::size_t i = 0; i < stamp.size(); ++i) {
    if (i > 0) out << "; ";
    out << stamp[i].first << '=' << stamp[i].second;
  }
  return out.str();
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace perfbench
