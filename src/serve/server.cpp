#include "serve/server.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <istream>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>

#include "obs/obs.h"
#include "serve/wire.h"

namespace diagnet::serve {

namespace {

using clock = std::chrono::steady_clock;

/// One queued outgoing response: either an immediate (pre-formatted) error
/// line, or a pending future the writer thread must wait on.
struct Outgoing {
  bool immediate = false;
  bool immediate_is_error = true;  // false for admin-command answers
  std::string immediate_line;
  std::uint64_t id = 0;
  std::size_t top_k = 5;
  clock::time_point submitted;
  std::future<core::DiagnoseResponse> future;
};

}  // namespace

SessionStats run_session(DiagnosisService& service,
                         const data::FeatureSpace& fs, std::istream& in,
                         std::ostream& out, std::size_t default_top_k,
                         const std::atomic<bool>* stop_flag,
                         const SessionHooks* hooks) {
  SessionStats stats;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<Outgoing> pending;
  bool reader_done = false;

  // Writer thread: answers strictly in submission order, so a pipelining
  // client can match responses positionally as well as by id. Waiting on
  // future k never starves k+1 — batching completes them together anyway.
  std::thread writer([&] {
    while (true) {
      Outgoing next;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || reader_done; });
        if (pending.empty() && reader_done) return;
        next = std::move(pending.front());
        pending.pop_front();
      }
      std::string line;
      bool ok = true;
      if (next.immediate) {
        line = std::move(next.immediate_line);
        ok = !next.immediate_is_error;
      } else {
        core::DiagnoseResponse response = next.future.get();
        const double latency_ms =
            std::chrono::duration<double, std::milli>(clock::now() -
                                                      next.submitted)
                .count();
        ok = response.ok();
        line = ok ? format_response(next.id, response, fs, next.top_k,
                                    latency_ms)
                  : format_error(next.id, response.status,
                                 response.trace.request_id);
      }
      out << line << '\n';
      out.flush();
      {
        std::lock_guard<std::mutex> lock(mu);
        ++stats.responses;
        if (!ok) ++stats.errors;
      }
    }
  });

  std::string line;
  while ((stop_flag == nullptr || !stop_flag->load()) &&
         std::getline(in, line)) {
    if (line.empty()) continue;
    DIAGNET_SPAN("serve.request");
    DIAGNET_COUNT("serve.requests");
    Outgoing outgoing;
    // Each line is parsed once; an object carrying "cmd" is an in-band
    // admin command, anything else follows the request schema.
    auto tree = parse_json(line);
    const JsonValue* cmd =
        tree.ok() && tree->kind() == JsonValue::Kind::Object
            ? tree->find("cmd")
            : nullptr;
    if (cmd != nullptr) {
      outgoing.immediate = true;
      if (cmd->kind() != JsonValue::Kind::String) {
        outgoing.immediate_line = format_error(
            0, util::Status::invalid_argument("'cmd' must be a string"));
      } else if (cmd->as_string() == "statsz") {
        if (hooks != nullptr && hooks->statsz) {
          outgoing.immediate_is_error = false;
          outgoing.immediate_line = hooks->statsz();
        } else {
          outgoing.immediate_line = format_error(
              0, util::Status::unavailable(
                     "statsz is not available on this session"));
        }
      } else {
        outgoing.immediate_line = format_error(
            0, util::Status::invalid_argument("unknown cmd '" +
                                              cmd->as_string() + "'"));
      }
    } else {
      auto parsed = tree.ok() ? parse_request(*tree)
                              : util::StatusOr<WireRequest>(tree.status());
      if (!parsed.ok()) {
        outgoing.immediate = true;
        outgoing.immediate_line = format_error(0, parsed.status());
      } else {
        outgoing.id = parsed->id;
        outgoing.top_k = parsed->top_k == 0 ? default_top_k : parsed->top_k;
        outgoing.submitted = clock::now();
        outgoing.future =
            service.submit(std::move(parsed->request), parsed->deadline_ms);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      ++stats.requests;
      pending.push_back(std::move(outgoing));
    }
    cv.notify_one();
  }

  {
    std::lock_guard<std::mutex> lock(mu);
    reader_done = true;
  }
  cv.notify_all();
  writer.join();
  return stats;
}

}  // namespace diagnet::serve
