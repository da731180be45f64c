#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Host-time spans recorded by the benchmark around its calls into the
// library's public functions. Spans live in memory while the run lasts and
// are written out once at the end; nothing is recorded unless the tracer
// is enabled, so the untraced (end-to-end) phases pay one branch per call.

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One span: a named call, its host-time interval (ms since the tracer's
/// origin), the span that enclosed it (-1 for a root) and the trial or run
/// it belongs to.
struct Span {
  const char* name = "";
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  int64_t op = -1;
};

/// Single-threaded span recorder: the benchmark issues every library call
/// from its main thread (the library's own pool threads are not traced).
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// Trial or run id stamped on the spans opened from now on.
  void set_op(int64_t op) { op_ = op; }
  const std::vector<Span>& spans() const { return spans_; }

  int Open(const char* name) {
    Span span;
    span.name = name;
    span.start_ms = MsBetween(origin_, Clock::now());
    span.parent = current_;
    span.op = op_;
    spans_.push_back(span);
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void Close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ms =
        MsBetween(origin_, Clock::now());
    current_ = spans_[static_cast<std::size_t>(index)].parent;
  }

  /// Self time per span name over the spans of trials (op >= 0): each
  /// span's duration minus the part its direct children cover.
  std::map<std::string, double> TrialSelfMsByName() const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.op >= 0 && span.parent >= 0) {
        child_ms[static_cast<std::size_t>(span.parent)] +=
            span.end_ms - span.start_ms;
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].op < 0) continue;
      self[spans_[i].name] +=
          spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
    }
    return self;
  }

  /// Writes one JSON object per span: name, start, end, parent, op.
  bool WriteJsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out.precision(17);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_ms\": " << s.start_ms << ", \"end_ms\": " << s.end_ms
          << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_ = false;
  int64_t op_ = -1;
  int current_ = -1;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

Tracer& GlobalTracer();

/// Calls `fn`, inside a span named `name` when tracing is on.
template <typename F>
decltype(auto) Traced(const char* name, F&& fn) {
  Tracer& tracer = GlobalTracer();
  if (!tracer.enabled()) return std::forward<F>(fn)();
  struct Guard {
    Tracer& tracer;
    int index;
    ~Guard() { tracer.Close(index); }
  } guard{tracer, tracer.Open(name)};
  return std::forward<F>(fn)();
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
