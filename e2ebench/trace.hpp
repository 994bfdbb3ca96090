// In-memory span recorder for the traced benchmark run.
//
// The benchmark wraps its own calls into each layer's public functions in
// spans (name, start, end, parent, run id). Spans stay in memory and are
// written once, at exit, as Chrome/Perfetto trace_event JSON plus a
// per-layer budget table (total and self time per span name, where self
// time is a span's duration minus the part its child spans cover).
// When the tracer is disabled, Span is a no-op apart from one branch.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

struct SpanRecord {
  const char* name = "";  ///< string literal
  double start_us = 0.0;
  double end_us = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t tid = 0;
};

class Tracer {
 public:
  static Tracer& get();

  void enable(std::uint64_t run_id) {
    enabled_ = true;
    run_id_ = run_id;
  }
  bool enabled() const { return enabled_; }

  std::uint64_t begin(double& start_us, std::uint64_t& parent);
  void end(const char* name, std::uint64_t id, std::uint64_t parent,
           double start_us);

  /// Total duration (ms) of all spans called `name`.
  double total_ms(const std::string& name) const;
  /// Durations (ms) of every span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;

  /// Budget table: one line per span name with count, total and self ms.
  std::string budget_table() const;
  /// Writes the Chrome trace JSON, and the budget table followed by
  /// `appendix` next to it.
  void write(const std::string& json_path, const std::string& table_path,
             const std::string& appendix) const;

 private:
  bool enabled_ = false;
  std::uint64_t run_id_ = 0;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span: records [construction, destruction) under the calling
/// thread's innermost open span. `name` must be a string literal.
class Span {
 public:
  explicit Span(const char* name) : name_(name) {
    if (Tracer::get().enabled()) id_ = Tracer::get().begin(t0_, parent_);
  }
  ~Span() {
    if (id_ != 0) Tracer::get().end(name_, id_, parent_, t0_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  double t0_ = 0.0;
};

}  // namespace e2e
