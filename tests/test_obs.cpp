#include "obs/obs.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string_view>

#include "util/thread_pool.h"

namespace diagnet::obs {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON well-formedness checker (recursive descent). The trace and
// metrics exports promise syntactically valid JSON; this verifies it without
// an external parser dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        ++pos_;
      }
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// Every test starts from a clean, enabled registry without a trace sink and
// leaves telemetry off with the sink cleared, so unrelated test binaries in
// the same process stay unobserved and no trace file is written at exit.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::instance().reset_for_test();
    set_enabled(true);
  }
  void TearDown() override {
    configure_exit_report("", "", false);
    set_enabled(false);
    Registry::instance().reset_for_test();
  }
  // Spans buffer trace events only while a trace path is configured.
  static void configure_trace_sink() {
    configure_exit_report(::testing::TempDir() + "diagnet_obs_test.trace.json",
                          "", false);
  }
};

const TraceEvent* find_event(const std::vector<TraceEvent>& events,
                             std::string_view name) {
  for (const TraceEvent& event : events)
    if (event.name == name) return &event;
  return nullptr;
}

TEST_F(ObsTest, NoTraceEventsWithoutASink) {
  constexpr std::size_t kSpans = 1000;
  for (std::size_t i = 0; i < kSpans; ++i) {
    DIAGNET_SPAN("test.unsunk_span");
  }
  EXPECT_TRUE(collect_trace_events().empty());
  EXPECT_EQ(Registry::instance().histogram("test.unsunk_span.ms").snapshot()
                .count,
            kSpans);
}

TEST_F(ObsTest, SpanNestingIsContainedInTraceEvents) {
  configure_trace_sink();
  {
    DIAGNET_SPAN("outer");
    {
      DIAGNET_SPAN("inner");
    }
  }
  const auto events = collect_trace_events();
  const TraceEvent* outer = find_event(events, "outer");
  const TraceEvent* inner = find_event(events, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->tid, inner->tid);  // same thread -> same lane
  EXPECT_GE(inner->ts_us, outer->ts_us);
  EXPECT_LE(inner->ts_us + inner->dur_us,
            outer->ts_us + outer->dur_us + 1e-3);
  // Spans also register "<name>.ms" histograms.
  const auto histograms = Registry::instance().histograms();
  EXPECT_NE(std::find_if(histograms.begin(), histograms.end(),
                    [](const auto& h) { return h.first == "outer.ms"; }),
            histograms.end());
}

TEST_F(ObsTest, ConcurrentCounterIncrementsFromThreadPool) {
  constexpr std::size_t kIterations = 20000;
  util::parallel_for(kIterations, [](std::size_t i) {
    DIAGNET_COUNT("test.concurrent");
    DIAGNET_OBSERVE("test.concurrent_hist", static_cast<double>(i % 100));
  });
  EXPECT_EQ(Registry::instance().counter("test.concurrent").value(),
            kIterations);
  const auto snap =
      Registry::instance().histogram("test.concurrent_hist").snapshot();
  EXPECT_EQ(snap.count, kIterations);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 99.0);
  EXPECT_GE(snap.percentile(0.5), 0.0);
  EXPECT_LE(snap.percentile(1.0), 99.0);
}

TEST_F(ObsTest, SpansFromWorkerThreadsAllReachTheTrace) {
  configure_trace_sink();
  constexpr std::size_t kIterations = 64;
  util::parallel_for(kIterations, [](std::size_t) {
    DIAGNET_SPAN("test.worker_span");
  });
  std::size_t seen = 0;
  for (const TraceEvent& event : collect_trace_events())
    seen += std::string_view(event.name) == "test.worker_span" ? 1 : 0;
  EXPECT_EQ(seen, kIterations);
}

TEST_F(ObsTest, TraceJsonIsWellFormed) {
  configure_trace_sink();
  {
    DIAGNET_SPAN("stage \"quoted\" \\ and\nnewline");
    DIAGNET_SPAN("plain.stage");
  }
  const std::string json = trace_to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("plain.stage"), std::string::npos);

  const std::string path = ::testing::TempDir() + "diagnet_trace_test.json";
  ASSERT_TRUE(write_trace_file(path));
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_TRUE(JsonChecker(buffer.str()).valid());
  std::remove(path.c_str());
}

TEST_F(ObsTest, MetricsJsonIsWellFormedIncludingEmptyHistograms) {
  DIAGNET_COUNT_N("test.count", 3);
  DIAGNET_GAUGE_SET("test.gauge", 2.5);
  Registry::instance().histogram("test.empty_hist");  // count == 0 -> nulls
  DIAGNET_OBSERVE("test.hist", 1.0);
  {
    DIAGNET_SPAN("test.json_span");
  }
  // Names must be escaped too (spans can carry arbitrary labels).
  DIAGNET_COUNT("test \"quoted\"\ncounter");
  const std::string json = metrics_to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"test.count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.empty_hist\":{\"count\":0"),
            std::string::npos);
  EXPECT_NE(json.find("null"), std::string::npos);  // NaN percentiles
  // One histogram family: observed values and span timings share the
  // "histograms" object and its fields.
  EXPECT_NE(json.find("\"test.hist\":{\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_span.ms\":{\"count\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"p999\""), std::string::npos);
}

TEST_F(ObsTest, SummaryRendersRecordedMetrics) {
  DIAGNET_COUNT("test.visits");
  DIAGNET_OBSERVE("test.wall_ms", 12.0);
  {
    DIAGNET_SPAN("test.summary_span");
  }
  const std::string summary = render_summary();
  EXPECT_NE(summary.find("test.visits"), std::string::npos);
  EXPECT_NE(summary.find("test.wall_ms"), std::string::npos);
  EXPECT_NE(summary.find("test.summary_span.ms"), std::string::npos);
  EXPECT_NE(summary.find("p99"), std::string::npos);
  EXPECT_NE(summary.find("p999"), std::string::npos);
  // One histogram table, not one per family.
  const std::size_t header = summary.find("| histogram");
  ASSERT_NE(header, std::string::npos);
  EXPECT_EQ(summary.find("| histogram", header + 1), std::string::npos);
}

TEST_F(ObsTest, DisabledModeRecordsNothing) {
  configure_trace_sink();
  set_enabled(false);
  {
    DIAGNET_SPAN("test.disabled_span");
  }
  DIAGNET_COUNT("test.disabled_count");
  DIAGNET_GAUGE_SET("test.disabled_gauge", 1.0);
  DIAGNET_OBSERVE("test.disabled_hist", 1.0);
  EXPECT_TRUE(collect_trace_events().empty());
  EXPECT_EQ(Registry::instance().counter("test.disabled_count").value(), 0u);
  EXPECT_EQ(
      Registry::instance().histogram("test.disabled_hist").snapshot().count,
      0u);
}

TEST_F(ObsTest, ForceDisableWinsOverLaterEnable) {
  // DIAGNET_OBS=0 semantics: once forced off, a sink asking for
  // set_enabled(true) must not re-enable recording.
  set_force_disabled(true);
  set_enabled(true);
  EXPECT_FALSE(enabled());
  DIAGNET_COUNT("test.forced_off");
  EXPECT_EQ(Registry::instance().counter("test.forced_off").value(), 0u);
  set_force_disabled(false);
  set_enabled(true);
  EXPECT_TRUE(enabled());
}

TEST_F(ObsTest, ToggleMidSpanStaysBalanced) {
  // A span started while enabled records even if telemetry is switched off
  // before it ends; a span started while disabled never records.
  configure_trace_sink();
  {
    DIAGNET_SPAN("test.started_enabled");
    set_enabled(false);
  }
  set_enabled(true);
  const auto events = collect_trace_events();
  EXPECT_NE(find_event(events, "test.started_enabled"), nullptr);
}

TEST_F(ObsTest, ResetForTestClearsEverything) {
  configure_trace_sink();
  DIAGNET_COUNT("test.reset_count");
  {
    DIAGNET_SPAN("test.reset_span");
  }
  ASSERT_FALSE(collect_trace_events().empty());
  Registry::instance().reset_for_test();
  EXPECT_EQ(Registry::instance().counter("test.reset_count").value(), 0u);
  EXPECT_TRUE(collect_trace_events().empty());
}

}  // namespace
}  // namespace diagnet::obs
