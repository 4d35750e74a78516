#include "serve/server.h"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <string>
#include <deque>
#include <future>
#include <istream>
#include <list>
#include <memory>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "serve/wire.h"

#if defined(__unix__) || defined(__APPLE__)
#define DIAGNET_SERVE_HAS_TCP 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define DIAGNET_SERVE_HAS_TCP 0
#endif

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

#if DIAGNET_SERVE_HAS_TCP

namespace {

/// Minimal streambuf over a connected socket: buffered reads, write-
/// through output. Enough for a line protocol; not seekable.
class FdStreambuf : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) {}

 protected:
  int_type underflow() override {
    const ssize_t n = ::read(fd_, buffer_, sizeof buffer_);
    if (n <= 0) return traits_type::eof();
    setg(buffer_, buffer_, buffer_ + n);
    return traits_type::to_int_type(*gptr());
  }

  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof()))
      return traits_type::not_eof(c);
    const char byte = traits_type::to_char_type(c);
    return write_all(&byte, 1) ? c : traits_type::eof();
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    return write_all(s, static_cast<std::size_t>(n))
               ? n
               : std::streamsize(0);
  }

 private:
  bool write_all(const char* data, std::size_t n) {
    while (n > 0) {
      // MSG_NOSIGNAL: a client that hangs up before reading must surface
      // as a write error here, not as a process-killing SIGPIPE.
#if defined(MSG_NOSIGNAL)
      const ssize_t written = ::send(fd_, data, n, MSG_NOSIGNAL);
#else
      const ssize_t written = ::write(fd_, data, n);
#endif
      if (written <= 0) return false;
      data += written;
      n -= static_cast<std::size_t>(written);
    }
    return true;
  }

  int fd_;
  char buffer_[4096];
};

/// One accepted connection: the session thread sets `done` when the
/// client side ends; the accept loop joins finished sessions and owns
/// closing `fd` (only after the join, so a shutdown() from the stop path
/// can never hit a recycled descriptor).
struct TcpSession {
  explicit TcpSession(int conn_fd) : fd(conn_fd) {}
  const int fd;
  std::atomic<bool> done{false};
  std::thread thread;
};

}  // namespace

util::Status run_tcp_listener(DiagnosisService& service,
                              const data::FeatureSpace& fs,
                              std::uint16_t port,
                              std::size_t default_top_k,
                              const std::atomic<bool>& stop_flag,
                              std::atomic<std::uint16_t>* bound_port,
                              const SessionHooks* hooks) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0)
    return util::Status::unavailable("tcp: socket() failed");
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 16) != 0) {
    ::close(listener);
    return util::Status::unavailable("tcp: cannot listen on 127.0.0.1:" +
                                     std::to_string(port));
  }
  socklen_t addr_len = sizeof addr;
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  if (bound_port != nullptr) bound_port->store(ntohs(addr.sin_port));
  std::fprintf(stderr, "serve: listening on 127.0.0.1:%u\n",
               static_cast<unsigned>(ntohs(addr.sin_port)));

  std::list<std::unique_ptr<TcpSession>> sessions;
  const auto reap_finished = [&sessions] {
    for (auto it = sessions.begin(); it != sessions.end();) {
      if ((*it)->done.load()) {
        (*it)->thread.join();
        ::close((*it)->fd);
        it = sessions.erase(it);
      } else {
        ++it;
      }
    }
  };

  while (!stop_flag.load()) {
    // Poll with a short timeout so the stop flag is honoured between
    // accepts, and reap finished sessions each tick — a long-lived server
    // must not accumulate joinable threads (or their fds) across
    // short-lived connections.
    pollfd pfd{listener, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    reap_finished();
    DIAGNET_GAUGE_SET("serve.tcp_sessions",
                      static_cast<double>(sessions.size()));
    if (ready < 0) {
      // A signal (SIGINT forwarded to every thread, a debugger attach)
      // interrupts poll with EINTR; that must not tear down the listener.
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) continue;
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) continue;
    // Nagle + the client's delayed ACK turns every small response line
    // into a ~40ms stall; a line protocol wants its writes on the wire
    // immediately.
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
#if defined(SO_NOSIGPIPE)
    ::setsockopt(conn, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof one);
#endif
    auto session = std::make_unique<TcpSession>(conn);
    TcpSession* raw = session.get();
    session->thread =
        std::thread([&service, &fs, default_top_k, &stop_flag, hooks, raw] {
          FdStreambuf buf(raw->fd);
          std::istream in(&buf);
          std::ostream out(&buf);
          run_session(service, fs, in, out, default_top_k, &stop_flag,
                      hooks);
          raw->done.store(true);
        });
    sessions.push_back(std::move(session));
  }
  ::close(listener);
  // Drain: SHUT_RD delivers EOF to sessions blocked in read() on idle
  // connections (otherwise shutdown would wait for every connected client
  // to hang up) while leaving the write side open, so in-flight responses
  // still reach their clients before the join.
  for (const auto& session : sessions) ::shutdown(session->fd, SHUT_RD);
  for (const auto& session : sessions) {
    session->thread.join();
    ::close(session->fd);
  }
  sessions.clear();
  DIAGNET_GAUGE_SET("serve.tcp_sessions", 0.0);
  return {};
}

#else  // !DIAGNET_SERVE_HAS_TCP

util::Status run_tcp_listener(DiagnosisService&, const data::FeatureSpace&,
                              std::uint16_t, std::size_t,
                              const std::atomic<bool>&,
                              std::atomic<std::uint16_t>*,
                              const SessionHooks*) {
  return util::Status::unavailable(
      "tcp transport is not available on this platform; use the stdio "
      "transport");
}

#endif  // DIAGNET_SERVE_HAS_TCP

}  // namespace diagnet::serve
