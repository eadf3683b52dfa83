// The ring-capacity policy, shared by every layer that moves values
// between processors: the in-process executor
// (runtime/executor.*), the SPSC ring itself (runtime/spsc_ring.hpp), and
// the generated-C backend (partition/c_codegen.*), which emits the same
// ring in C11 and must size it identically.
//
// Policy: a channel's ring holds its *exact* total message count
// (ChannelDesc::messages), rounded up to a power of two so the cursors can
// be masked — at that size a bounded sender can never block, so the
// lock-free fast path is also wait-free for the whole run.  An optional
// cap bounds memory instead, trading wait-freedom for spin-then-yield
// backpressure (see RunOptions::channel_capacity for the deadlock caveat).
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
/// exact sizing (never blocks a sender), optionally capped at `cap` (> 0)
/// for bounded memory, then rounded up to a power of two.
[[nodiscard]] constexpr std::size_t ring_capacity(std::int64_t messages,
                                                  std::int64_t cap = 0) {
  std::int64_t want = messages < 1 ? 1 : messages;
  if (cap > 0 && cap < want) want = cap;
  return spsc_ring_capacity(static_cast<std::size_t>(want));
}

}  // namespace mimd
