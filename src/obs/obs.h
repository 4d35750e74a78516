// Umbrella header + instrumentation macros for the telemetry subsystem.
//
// Instrumented code uses ONLY these macros, never the classes directly.
// The probes cost one relaxed atomic load while telemetry is off (the
// default); see telemetry.h for the runtime switch.
//
// Hot-path contract: `name` must be a string literal (one fixed name per
// call site). Each macro caches its metric pointer in a function-local
// static on first use, so steady-state recording is lock-free — the
// registry mutex and its linear name scan are paid once per call site,
// not once per event. Metric objects live for the process lifetime
// (Registry::reset_for_test zeroes values, never destroys entries), so the
// cached reference cannot dangle. Every histogram is a LogLinearHistogram.
//
//   DIAGNET_SPAN("pipeline.train");          // RAII scope timer
//   DIAGNET_COUNT("diagnose.calls");         // counter += 1
//   DIAGNET_COUNT_N("agent.probes", sent);   // counter += n
//   DIAGNET_GAUGE_SET("trainer.best_val_loss", loss);
//   DIAGNET_OBSERVE("serve.latency_ms", ms);  // histogram
#pragma once

#include "obs/report.h"
#include "obs/telemetry.h"

#define DIAGNET_OBS_CONCAT_INNER(a, b) a##b
#define DIAGNET_OBS_CONCAT(a, b) DIAGNET_OBS_CONCAT_INNER(a, b)

// The span's "<name>.ms" histogram pointer is cached in the static
// SpanSite, so closing a span is a clock read + one lock-free histogram
// insert — no registry lookup, no string concatenation — plus a trace
// event only while a trace path is configured.
#define DIAGNET_SPAN(name)                                                \
  static ::diagnet::obs::SpanSite DIAGNET_OBS_CONCAT(diagnet_obs_site_,   \
                                                     __LINE__){name};     \
  ::diagnet::obs::Span DIAGNET_OBS_CONCAT(diagnet_obs_span_, __LINE__)(   \
      DIAGNET_OBS_CONCAT(diagnet_obs_site_, __LINE__))

#define DIAGNET_COUNT_N(name, n)                                          \
  do {                                                                    \
    if (::diagnet::obs::enabled()) {                                      \
      static ::diagnet::obs::Counter& diagnet_obs_metric =                \
          ::diagnet::obs::Registry::instance().counter(name);             \
      diagnet_obs_metric.add(static_cast<std::uint64_t>(n));              \
    }                                                                     \
  } while (0)
#define DIAGNET_COUNT(name) DIAGNET_COUNT_N(name, 1)

#define DIAGNET_GAUGE_SET(name, value)                                    \
  do {                                                                    \
    if (::diagnet::obs::enabled()) {                                      \
      static ::diagnet::obs::Gauge& diagnet_obs_metric =                  \
          ::diagnet::obs::Registry::instance().gauge(name);               \
      diagnet_obs_metric.set(static_cast<double>(value));                 \
    }                                                                     \
  } while (0)

#define DIAGNET_OBSERVE(name, value)                                      \
  do {                                                                    \
    if (::diagnet::obs::enabled()) {                                      \
      static ::diagnet::obs::LogLinearHistogram& diagnet_obs_metric =     \
          ::diagnet::obs::Registry::instance().histogram(name);           \
      diagnet_obs_metric.observe(static_cast<double>(value));             \
    }                                                                     \
  } while (0)
