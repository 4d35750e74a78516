#include "serve/server.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <istream>
#include <memory>
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

AnswerLine error_line(const util::Status& status) {
  return {format_error(0, status), /*is_error=*/true};
}

}  // namespace

std::optional<AnswerLine> handle_request_line(
    DiagnosisService& service, const data::FeatureSpace& fs,
    const std::string& line, std::size_t default_top_k,
    const SessionHooks* hooks, std::function<void(AnswerLine)> done,
    std::function<clock::time_point()> now) {
  DIAGNET_SPAN("serve.request");
  DIAGNET_COUNT("serve.requests");
  // Each line is parsed once; an object carrying "cmd" is an in-band
  // admin command, anything else follows the request schema.
  auto tree = parse_json(line);
  const JsonValue* cmd =
      tree.ok() && tree->kind() == JsonValue::Kind::Object
          ? tree->find("cmd")
          : nullptr;
  if (cmd != nullptr) {
    if (cmd->kind() != JsonValue::Kind::String)
      return error_line(
          util::Status::invalid_argument("'cmd' must be a string"));
    if (cmd->as_string() != "statsz")
      return error_line(util::Status::invalid_argument(
          "unknown cmd '" + cmd->as_string() + "'"));
    if (hooks == nullptr || !hooks->statsz)
      return error_line(util::Status::unavailable(
          "statsz is not available on this session"));
    return AnswerLine{hooks->statsz(), /*is_error=*/false};
  }
  auto parsed = tree.ok() ? parse_request(*tree)
                          : util::StatusOr<WireRequest>(tree.status());
  if (!parsed.ok()) return error_line(parsed.status());

  if (!now) now = [] { return clock::now(); };
  const std::uint64_t wire_id = parsed->id;
  const std::size_t top_k =
      parsed->top_k == 0 ? default_top_k : parsed->top_k;
  const clock::time_point submitted = now();
  // The callback formats the line where the diagnosis completes, so a
  // transport only ever hands finished strings around.
  service.submit(
      std::move(parsed->request), parsed->deadline_ms,
      [finish = std::move(done), clk = std::move(now), fsp = &fs, wire_id,
       top_k, submitted](core::DiagnoseResponse response) {
        if (!response.ok()) {
          finish({format_error(wire_id, response.status,
                             response.trace.request_id),
                /*is_error=*/true});
          return;
        }
        const double latency_ms =
            std::chrono::duration<double, std::milli>(clk() - submitted)
                .count();
        finish({format_response(wire_id, response, *fsp, top_k, latency_ms),
              /*is_error=*/false});
      });
  return std::nullopt;
}

SessionStats run_session(DiagnosisService& service,
                         const data::FeatureSpace& fs, std::istream& in,
                         std::ostream& out, std::size_t default_top_k,
                         const std::atomic<bool>* stop_flag,
                         const SessionHooks* hooks) {
  SessionStats stats;

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::future<AnswerLine>> pending;
  bool reader_done = false;

  // Writer thread: answers strictly in submission order, so a pipelining
  // client can match responses positionally as well as by id. Waiting on
  // future k never starves k+1 — batching completes them together anyway.
  std::thread writer([&] {
    while (true) {
      std::future<AnswerLine> next;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !pending.empty() || reader_done; });
        if (pending.empty() && reader_done) return;
        next = std::move(pending.front());
        pending.pop_front();
      }
      const AnswerLine answer = next.get();
      out << answer.line << '\n';
      out.flush();
      {
        std::lock_guard<std::mutex> lock(mu);
        ++stats.responses;
        if (answer.is_error) ++stats.errors;
      }
    }
  });

  std::string line;
  while ((stop_flag == nullptr || !stop_flag->load()) &&
         std::getline(in, line)) {
    if (line.empty()) continue;
    auto answer = std::make_shared<std::promise<AnswerLine>>();
    std::future<AnswerLine> future = answer->get_future();
    if (std::optional<AnswerLine> immediate = handle_request_line(
            service, fs, line, default_top_k, hooks,
            [answer](AnswerLine done) { answer->set_value(std::move(done)); }))
      answer->set_value(std::move(*immediate));
    {
      std::lock_guard<std::mutex> lock(mu);
      ++stats.requests;
      pending.push_back(std::move(future));
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
