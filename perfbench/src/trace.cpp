#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog::Scope::Scope(SpanLog& log, const char* name, std::uint64_t op) {
  if (!log.enabled_) return;
  log_ = &log;
  index_ = static_cast<std::int32_t>(log.spans_.size());
  Span s;
  s.name = name;
  s.op = op;
  s.parent = log.open_;
  log.spans_.push_back(s);
  log.open_ = index_;
  // Read the clock last so the bookkeeping above is not charged to the
  // span.
  log.spans_.back().start_ns = now_ns();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  Span& s = log_->spans_[static_cast<std::size_t>(index_)];
  s.end_ns = now_ns();
  log_->open_ = s.parent;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [b, e] : kids) {
      const std::int64_t lo = std::max(b, cursor);
      const std::int64_t hi = std::min(e, s.end_ns);
      if (hi > lo) covered += hi - lo;
      cursor = std::max(cursor, hi);
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

std::map<std::string, std::vector<double>> self_ms_by_name(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, std::vector<double>> out;
  for (const SpanLog* log : logs) {
    const std::vector<std::int64_t> self = self_times_ns(log->spans());
    for (std::size_t i = 0; i < self.size(); ++i) {
      out[log->spans()[i].name].push_back(static_cast<double>(self[i]) * 1e-6);
    }
  }
  return out;
}

std::map<std::string, std::vector<double>> total_ms_by_name(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, std::vector<double>> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      out[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

void write_spans(std::ostream& out, const std::string& header,
                 const std::vector<const SpanLog*>& logs) {
  out << "# " << header << "\n"
      << "# log\tindex\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n";
  for (std::size_t l = 0; l < logs.size(); ++l) {
    const std::vector<Span>& spans = logs[l]->spans();
    const std::vector<std::int64_t> self = self_times_ns(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << l << '\t' << i << '\t' << s.parent << '\t' << s.op << '\t'
          << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\t'
          << self[i] << '\n';
    }
  }
}

}  // namespace perfbench
