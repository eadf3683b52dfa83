// Spans recorded by the benchmark around each call it makes into a layer
// of the library (parser, mid-end, parallelizer, plan client, executor,
// sequential baseline, ...).  Nothing here reaches into the library: a
// span covers one public call as seen from outside.
//
// Each driver thread owns one SpanLog (single writer, no locking).  Spans
// stay in memory and are written out once the run ends, so recording
// costs two clock reads and a vector append per call.  A span's parent is
// the span open on the same log when it started; its op id ties every
// span of one benchmark operation together.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();

struct Span {
  const char* name = "";  ///< a string literal: the layer call it covers
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same log, -1 = root
};

class SpanLog {
 public:
  /// RAII span: opens on construction, closes on destruction.  A no-op
  /// while the log is disabled.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_ = nullptr;  ///< null when not recording
    std::int32_t index_ = -1;
  };

  /// Tracing is switched per operation (traced and untraced ops are
  /// interleaved in one run); switch only between ops, never while a
  /// span is open.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::int32_t open_ = -1;
  std::vector<Span> spans_;
};

/// Per span: its duration minus the part of [start, end) that its direct
/// children cover (overlapping children counted once).  Indices match
/// `spans`; parents must precede their children, as SpanLog records them.
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    const std::vector<Span>& spans);

/// Self times in milliseconds, grouped by span name, over several logs.
[[nodiscard]] std::map<std::string, std::vector<double>> self_ms_by_name(
    const std::vector<const SpanLog*>& logs);

/// Total durations in milliseconds, grouped by span name.
[[nodiscard]] std::map<std::string, std::vector<double>> total_ms_by_name(
    const std::vector<const SpanLog*>& logs);

/// One tab-separated line per span — log, index, parent, op, name,
/// start_ns, end_ns, self_ns — after a '#'-prefixed header line.
void write_spans(std::ostream& out, const std::string& header,
                 const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
