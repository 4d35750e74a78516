// The stdio transport of the serving subsystem: a line-delimited JSON
// session over std::istream/std::ostream (what `diagnet serve` runs
// without --port, and what the tests drive with string streams). The one
// TCP transport is the epoll reactor (serve/reactor.h), whose line framer
// (serve/framing.h) splits lines exactly as this session's getline does.
//
// Both transports turn a request line into a response line through the
// one handle_request_line() below; they differ only in how they keep
// answers in submission order.
//
// A session reads one request per line, submits it to the
// DiagnosisService, and writes one response line per request *in
// submission order* (a dedicated writer thread waits on the per-request
// futures, so reading and writing overlap and a client may pipeline
// thousands of requests without reading). EOF triggers the graceful
// drain: every accepted request is answered before the session returns.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>

#include "data/feature_space.h"
#include "serve/service.h"

namespace diagnet::serve {

struct SessionStats {
  std::uint64_t requests = 0;   // lines read (including malformed ones)
  std::uint64_t responses = 0;  // lines written
  std::uint64_t errors = 0;     // non-OK responses among them
};

/// Optional per-session capabilities a transport exposes to in-band admin
/// commands. A request line of {"cmd":"statsz"} answers with one
/// statsz() line instead of being submitted as a diagnosis; sessions
/// without hooks answer such lines with an unimplemented error.
struct SessionHooks {
  std::function<std::string()> statsz;  // one-line JSON snapshot
};

/// One rendered response line, and whether it reports an error.
struct AnswerLine {
  std::string line;
  bool is_error = false;
};

/// Handle one non-empty request line, as every transport does. An object
/// carrying "cmd" is an in-band admin command; anything else follows the
/// request schema, its top_k defaulting to `default_top_k`. An admin
/// command or a line that does not parse is answered at once through the
/// return value. A request is submitted to `service` instead (nullopt is
/// returned), and `done` receives its line exactly once: on the
/// dispatcher thread, or synchronously for an immediate rejection. `done`
/// must be cheap and must not call back into the service. `now` times the
/// latency_ms field (steady_clock::now when empty).
std::optional<AnswerLine> handle_request_line(
    DiagnosisService& service, const data::FeatureSpace& fs,
    const std::string& line, std::size_t default_top_k,
    const SessionHooks* hooks, std::function<void(AnswerLine)> done,
    std::function<std::chrono::steady_clock::time_point()> now = {});

/// Run one stdio-style session to completion (EOF on `in`, or
/// `stop_flag` becoming true between lines — e.g. from a SIGINT handler).
/// Does NOT stop the service: the caller owns its lifetime, so several
/// sessions can share one service.
SessionStats run_session(DiagnosisService& service,
                         const data::FeatureSpace& fs, std::istream& in,
                         std::ostream& out, std::size_t default_top_k = 5,
                         const std::atomic<bool>* stop_flag = nullptr,
                         const SessionHooks* hooks = nullptr);

}  // namespace diagnet::serve
