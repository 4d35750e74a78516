// In-memory span recorder for the benchmark's own probes.
//
// Spans carry a name, start, end, parent and an operation id, and live in a
// vector until the run ends; write_chrome() then dumps them as Chrome
// trace-event JSON (the same format `diagnet --trace` writes), one complete
// ("X") event per span. Spans are recorded from one thread only: the
// benchmark's driver thread, around its calls into the library.
//
// A disabled tracer records nothing, so the untraced run pays one branch per
// span site.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;  // index into spans(), -1 for a root
    std::uint64_t op = 0;
  };

  /// RAII handle: closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool enabled)
      : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Switch recording on or off; only between spans (none may be open).
  void set_enabled(bool on) { enabled_ = on; }

  /// Open a span nested under the innermost open one.
  [[nodiscard]] Scope span(const char* name, std::uint64_t op = 0);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: total duration and self time (duration minus the time
  /// its direct children cover), in microseconds.
  struct Totals {
    double total_us = 0.0;
    double self_us = 0.0;
    std::uint64_t count = 0;
    bool has_children = false;
  };
  std::map<std::string, Totals> totals() const;

  /// Chrome trace-event JSON with one "X" event per span; each event's args
  /// hold the op id and the parent span's name.
  bool write_chrome(const std::string& path) const;

 private:
  double now_us() const;
  void close(int index);

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace perfbench
