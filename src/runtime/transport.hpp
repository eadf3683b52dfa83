// The ring-capacity policy, shared by every layer that moves values
// between processors: the in-process executor
// (runtime/executor.*), the SPSC ring itself (runtime/spsc_ring.hpp), and
// the generated-C backend (partition/c_codegen.*), which emits the same
// ring in C11 and must size it identically.
//
// Policy: a channel's ring holds its *exact* total message count
// (ChannelDesc::messages), rounded up to a power of two so the cursors can
// be masked — at that size a bounded sender can never block, so the
// lock-free fast path is also wait-free for the whole run.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mimd {

/// Smallest power of two >= min_capacity (and >= 2): the ring sizes the
/// SpscChannel constructor and the emitted C both use, so cursor masking
/// works identically in both runtimes.
[[nodiscard]] constexpr std::size_t spsc_ring_capacity(
    std::size_t min_capacity) {
  std::size_t cap = 2;
  while (cap < min_capacity) cap <<= 1;
  return cap;
}

/// Capacity for a channel carrying `messages` values over the whole run:
/// exact sizing (never blocks a sender), rounded up to a power of two.
[[nodiscard]] constexpr std::size_t ring_capacity(std::int64_t messages) {
  return spsc_ring_capacity(
      messages < 1 ? 1 : static_cast<std::size_t>(messages));
}

}  // namespace mimd
