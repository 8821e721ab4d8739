// In-memory wall-clock spans recorded by the benchmark around its own
// calls into each layer (nothing inside src/ is instrumented).  Spans
// nest on the benchmark's thread: a span opened while another is open
// becomes its child.  They are written once, at the end of a traced run,
// as Chrome trace-event JSON (chrome://tracing or Perfetto open it).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cascade_bench {

struct Span {
  std::string name;
  double start = 0.0;  ///< wall seconds (steady clock)
  double end = 0.0;
  int parent = -1;          ///< index of the enclosing span, -1 at the root
  std::int64_t id = -1;     ///< request, batch or frame id (-1 = none)

  double duration() const { return end - start; }
};

class Tracer {
 public:
  Tracer();

  /// Opens a span under the innermost open span; returns its index.
  int begin(const std::string& name, std::int64_t id = -1);
  /// Closes span `index` (must be the innermost open span).
  void end(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Σ durations of every span called `name`.
  double total(const std::string& name) const;
  /// Σ durations of the direct children of every span called `name`; a
  /// layer's self time is its total minus this.
  double child_total(const std::string& name) const;

  /// Writes the Chrome trace-event JSON file.
  void write_chrome(const std::string& path) const;

 private:
  double origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::int64_t id = -1)
      : tracer_(tracer), index_(tracer ? tracer->begin(name, id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace cascade_bench
