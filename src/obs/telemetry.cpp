#include "obs/telemetry.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace diagnet::obs {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_force_disabled{false};
/// True while a trace path is configured; spans buffer events only then.
std::atomic<bool> g_trace_sink{false};

/// Monotonic process epoch shared by every span so trace timestamps align.
std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

double us_since_epoch(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - process_epoch())
      .count();
}

/// Global cap on buffered trace events — a runaway campaign must not OOM
/// the process it is observing.
constexpr std::size_t kMaxTraceEvents = 1u << 22;  // ~4M events
std::atomic<std::size_t> g_trace_events{0};

/// Per-thread trace buffer. Each buffer has its own mutex so a collecting
/// thread can read buffers of still-live threads; the owning thread's
/// appends stay effectively uncontended.
struct ThreadTraceBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

struct TraceBufferList {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
  std::uint32_t next_tid = 1;
};

TraceBufferList& trace_buffers() {
  static auto* list = new TraceBufferList();  // leaked: outlives all threads
  return *list;
}

ThreadTraceBuffer& local_trace_buffer() {
  // shared_ptr keeps the buffer alive in the global list after thread exit
  // so events from short-lived workers still reach the export.
  thread_local std::shared_ptr<ThreadTraceBuffer> buffer = [] {
    auto b = std::make_shared<ThreadTraceBuffer>();
    TraceBufferList& list = trace_buffers();
    std::lock_guard<std::mutex> lock(list.mu);
    b->tid = list.next_tid++;
    list.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

namespace {

std::string fmt_us(double v) {
  // Fixed 3-decimal microseconds keeps files compact and locale-free.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) {
  g_enabled.store(on && !g_force_disabled.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
}

bool force_disabled() {
  return g_force_disabled.load(std::memory_order_relaxed);
}
void set_force_disabled(bool force) {
  g_force_disabled.store(force, std::memory_order_relaxed);
  if (force) g_enabled.store(false, std::memory_order_relaxed);
}

Registry& Registry::instance() {
  static auto* registry = new Registry();  // leaked: usable during atexit
  return *registry;
}

template <typename T>
T& Registry::lookup(
    std::vector<std::pair<std::string, std::unique_ptr<T>>>& entries,
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [entry_name, metric] : entries)
    if (entry_name == name) return *metric;
  entries.emplace_back(name, std::make_unique<T>());
  return *entries.back().second;
}

Counter& Registry::counter(const std::string& name) {
  return lookup(counters_, name);
}
Gauge& Registry::gauge(const std::string& name) {
  return lookup(gauges_, name);
}
LogLinearHistogram& Registry::histogram(const std::string& name) {
  return lookup(histograms_, name);
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::counters() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, metric] : counters_)
    out.emplace_back(name, metric->value());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, double>> Registry::gauges() const {
  std::vector<std::pair<std::string, double>> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, metric] : gauges_)
    out.emplace_back(name, metric->value());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<std::string, LogLinearHistogram::Snapshot>>
Registry::histograms() const {
  std::vector<std::pair<std::string, LogLinearHistogram::Snapshot>> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, metric] : histograms_)
      out.emplace_back(name, metric->snapshot());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void Registry::reset_for_test() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, metric] : counters_) metric->reset();
    for (auto& [name, metric] : gauges_) metric->set(0.0);
    for (auto& [name, metric] : histograms_) metric->reset();
  }
  TraceBufferList& list = trace_buffers();
  std::lock_guard<std::mutex> lock(list.mu);
  for (auto& buffer : list.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->events.clear();
  }
  g_trace_events.store(0, std::memory_order_relaxed);
}

namespace detail {

// Flipped only by configure_exit_report (report.cpp, which declares it
// itself): trace buffering follows the configured trace path and has no
// public switch of its own.
void set_trace_sink(bool configured) {
  g_trace_sink.store(configured, std::memory_order_relaxed);
}

}  // namespace detail

Span::Span(SpanSite& site) : site_(site), active_(enabled()) {
  if (active_) start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (!active_) return;
  const auto end = std::chrono::steady_clock::now();
  const double dur_us =
      std::chrono::duration<double, std::micro>(end - start_).count();
  LogLinearHistogram* histogram =
      site_.histogram.load(std::memory_order_acquire);
  if (histogram == nullptr) {
    histogram = &Registry::instance().histogram(std::string(site_.name) +
                                                ".ms");
    site_.histogram.store(histogram, std::memory_order_release);
  }
  histogram->observe(dur_us / 1000.0);
  if (!g_trace_sink.load(std::memory_order_relaxed) ||
      g_trace_events.fetch_add(1, std::memory_order_relaxed) >=
          kMaxTraceEvents)
    return;
  ThreadTraceBuffer& buffer = local_trace_buffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(
      {site_.name, us_since_epoch(start_), dur_us, buffer.tid});
}

std::vector<TraceEvent> collect_trace_events() {
  std::vector<TraceEvent> out;
  TraceBufferList& list = trace_buffers();
  std::lock_guard<std::mutex> lock(list.mu);
  for (auto& buffer : list.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a,
                                       const TraceEvent& b) {
    return a.ts_us != b.ts_us ? a.ts_us < b.ts_us : a.dur_us > b.dur_us;
  });
  return out;
}

std::string trace_to_json() {
  const std::vector<TraceEvent> events = collect_trace_events();
  std::string out;
  out.reserve(events.size() * 96 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, event.name);
    out += "\",\"cat\":\"diagnet\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(event.tid);
    out += ",\"ts\":";
    out += fmt_us(event.ts_us);
    out += ",\"dur\":";
    out += fmt_us(event.dur_us);
    out += '}';
  }
  out += "]}";
  return out;
}

bool write_trace_file(const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  file << trace_to_json() << '\n';
  return static_cast<bool>(file);
}

}  // namespace diagnet::obs
