// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the harness itself, around each call into a layer
// of the program (flow phases, shard runs, timing queries, kernel probes):
// name, start, end, parent span and the pass ("run id") they belong to.
// Nothing is written while a run measures; the spans are exported at the
// end as Chrome trace-event JSON (viewable in Perfetto or chrome://tracing)
// and folded into per-name totals and self times.  When tracing is off a
// Span costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< id of the enclosing span, -1 at top level
  std::int64_t run = -1;     ///< pass the span belongs to, -1 outside passes
  std::int64_t pid = 0;      ///< process that recorded it (shard workers)

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Aggregate of every span with one name.
struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< total minus the time covered by child spans
};

class Tracer {
 public:
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Starts a pass: spans opened until end_run() carry this run id.
  void begin_run(std::int64_t run) { run_ = run; }
  void end_run() { run_ = -1; }

  /// Opens a span and returns its index, or -1 when tracing is off.
  std::int64_t open(const char* name);
  void close(std::int64_t index);

  /// Adds spans recorded by another process (a shard worker); their ids are
  /// remapped into this tracer and top-level ones are parented under
  /// `parent` (an index returned by open()).
  void adopt(std::vector<SpanRecord> spans, std::int64_t parent);

  /// Summed duration (s) of the spans named `name` in pass `run`.
  double run_total(const std::string& name, std::int64_t run) const;

  std::map<std::string, SpanTotals> totals() const;

  /// Chrome trace-event JSON ("X" complete events, microsecond clock).
  std::string chrome_json() const;

  /// Tab-separated lines one span each, the format shard workers hand
  /// their spans back in; parse_lines() is its inverse.
  std::string to_lines() const;
  static std::vector<SpanRecord> parse_lines(const std::string& text);

 private:
  bool enabled_ = false;
  std::int64_t run_ = -1;
  std::vector<SpanRecord> spans_;
  std::vector<std::int64_t> stack_;  ///< open span indices, innermost last
};

/// The process-wide tracer used by every Span.
Tracer& tracer();

/// RAII span around one layer call.
class Span {
 public:
  explicit Span(const char* name) : index_(tracer().open(name)) {}
  ~Span() { close(); }
  /// Index to parent adopted spans under, -1 when tracing is off.
  std::int64_t index() const { return index_; }
  void close() {
    if (index_ >= 0) tracer().close(index_);
    index_ = -1;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_;
};

}  // namespace perfbench
