#pragma once

// Benchmark-side spans and the per-layer wall-clock ledger.
//
// The benchmark times each layer from outside: it opens a span around every
// call it makes into a layer's public functions (generator, session build,
// session run, apsp_clique, client request) and adds measured children whose
// duration a layer reports itself but whose position inside the parent is
// not known — the summed TraceRecord::delivery_ms of a run, or the wall_ms a
// ccqd result carries. A span's self time is its duration minus its
// children's; the self times of all spans partition the root spans exactly,
// so every layer plus the unnamed remainder sums to the traced wall.

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  std::string name;
  double start_ms = 0;  ///< since the log's epoch
  double end_ms = 0;
  int parent = -1;  ///< index into the same log; -1 for a root
  int lane = 0;     ///< client thread for concurrent spans, else 0
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch, int lane = 0)
      : epoch_(epoch), lane_(lane) {}

  int open(const char* name, int parent = -1) {
    const double now = ms_between(epoch_, Clock::now());
    spans_.push_back({name, now, now, parent, lane_});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[id].end_ms = ms_between(epoch_, Clock::now()); }

  /// A span with known start and end (e.g. timed by a client loop).
  int add(const char* name, int parent, Clock::time_point start,
          Clock::time_point end) {
    spans_.push_back({name, ms_between(epoch_, start), ms_between(epoch_, end),
                      parent, lane_});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// A child whose duration was measured by the layer itself; it is laid at
  /// the start of its parent.
  void add_measured(const char* name, int parent, double duration_ms) {
    const double start = spans_[parent].start_ms;
    spans_.push_back({name, start, start + duration_ms, parent, lane_});
  }

  /// Append another log's spans (parents re-indexed).
  void append(const SpanLog& other) {
    const int offset = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += offset;
      spans_.push_back(std::move(s));
    }
  }

  const std::vector<Span>& spans() const { return spans_; }

  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                   "\"end_ms\": %.6f, \"parent\": %d, \"lane\": %d}\n",
                   i, s.name.c_str(), s.start_ms, s.end_ms, s.parent, s.lane);
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point epoch_;
  int lane_;
  std::vector<Span> spans_;
};

struct Ledger {
  double wall_ms = 0;                       ///< sum of root durations
  std::map<std::string, double> self_ms;    ///< by span name
  std::string problem;  ///< set when a child overruns its parent
};

/// Self time per span name. A child longer than its parent (beyond clock
/// rounding) means a layer reported more time than the call that contains
/// it took — a measurement bug, reported rather than clamped.
inline Ledger self_times(const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.parent >= 0) child_ms[s.parent] += s.end_ms - s.start_ms;
  Ledger out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self = (s.end_ms - s.start_ms) - child_ms[i];
    if (self < -1e-3 && out.problem.empty())
      out.problem = "children of span '" + s.name + "' exceed it by " +
                    std::to_string(-self) + " ms";
    out.self_ms[s.name] += self;
    if (s.parent < 0) out.wall_ms += s.end_ms - s.start_ms;
  }
  return out;
}

}  // namespace perfbench
