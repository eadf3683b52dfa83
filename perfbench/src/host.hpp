// What a result set must carry to be compared with another: the host it
// ran on, the build, the JIT toolchain's state and the seed.  Numbers
// from different hosts are not comparable unlabelled.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Ordered key/value pairs: nproc, cpu, compiler, build type, JIT
/// availability (and the reason when unavailable), the JIT C compiler's
/// version line, and the seed.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> host_stamp(
    std::uint64_t seed);

/// The stamp as one `key=value; ...` line.
[[nodiscard]] std::string format_stamp(
    const std::vector<std::pair<std::string, std::string>>& stamp);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
