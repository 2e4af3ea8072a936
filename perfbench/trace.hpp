// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its calls into Buffy's
// public API (the program itself is not instrumented). Each span has a
// name, a start and end on the steady clock, the index of its parent span
// and the id of the op it belongs to. Spans stay in memory and are written
// out once, as Chrome trace-event JSON (Perfetto and chrome://tracing open
// it directly), when the run ends.
//
// A disabled tracer records nothing, so untraced runs pay only for the
// `enabled()` test at each boundary.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the tracer was created
  double end = -1.0;   // -1 while the span is open
  int parent = -1;     // index into Tracer::spans(), -1 for an op root
  std::uint64_t op = 0;
  /// Counters read at this boundary (node counts, rlimit, ...).
  std::map<std::string, double> args;
};

/// `text` as a JSON string literal.
std::string jsonString(const std::string& text);

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Starts a new op: later spans carry its id until the next beginOp().
  void beginOp() { ++op_; }

  /// Opens a span under the innermost open span; returns its index, or -1
  /// when tracing is off.
  int open(const std::string& name);
  /// Closes the span `index` (no-op for -1).
  void close(int index);
  /// Attaches a counter to span `index` (no-op for -1).
  void arg(int index, const std::string& key, double value);

  /// Duration of span `index` in seconds (0 for -1).
  [[nodiscard]] double seconds(int index) const;
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes {"traceEvents":[...], "otherData":{...}}; `otherData` is a
  /// JSON object text (the host facts). Returns false on I/O failure.
  bool writeTraceEvents(const std::string& path,
                        const std::string& otherData) const;

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const std::string& name)
        : tracer_(tracer), index_(tracer.open(name)) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] int index() const { return index_; }
    /// Closes early and returns the duration in seconds.
    double stop() {
      tracer_.close(index_);
      return tracer_.seconds(index_);
    }

   private:
    Tracer& tracer_;
    int index_;
  };

 private:
  [[nodiscard]] double now() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span indices
};

}  // namespace perfbench
