#include "serve/reactor.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "serve/framing.h"
#include "serve/wire.h"

#if defined(__linux__)
#define DIAGNET_SERVE_HAS_EPOLL 1
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define DIAGNET_SERVE_HAS_EPOLL 0
#endif

namespace diagnet::serve {

namespace detail {

ReactorStats ReactorCounters::snapshot() const {
  ReactorStats s;
  s.accepted = accepted.load(std::memory_order_relaxed);
  s.closed = closed.load(std::memory_order_relaxed);
  s.active = active.load(std::memory_order_relaxed);
  s.requests = requests.load(std::memory_order_relaxed);
  s.responses = responses.load(std::memory_order_relaxed);
  s.idle_timeouts = idle_timeouts.load(std::memory_order_relaxed);
  s.backpressure_stalls = backpressure_stalls.load(std::memory_order_relaxed);
  s.slow_reader_closes = slow_reader_closes.load(std::memory_order_relaxed);
  s.over_capacity = over_capacity.load(std::memory_order_relaxed);
  s.oversized_lines = oversized_lines.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors.load(std::memory_order_relaxed);
  s.buffered_bytes = buffered_bytes.load(std::memory_order_relaxed);
  return s;
}

}  // namespace detail

bool reactor_supported() { return DIAGNET_SERVE_HAS_EPOLL != 0; }

#if DIAGNET_SERVE_HAS_EPOLL

namespace {

using steady = std::chrono::steady_clock;

constexpr std::uint64_t kWakeupId = 0;
constexpr std::uint64_t kListenerId = 1;
constexpr std::uint64_t kFirstConnId = 2;

/// One formatted response line handed back from a dispatcher thread.
struct Completed {
  std::uint64_t conn_id = 0;
  std::uint64_t seq = 0;
  std::string line;
  bool is_error = false;
};

/// MPSC handoff from DiagnosisService completion callbacks to the loop
/// thread, with an eventfd so a blocking epoll_wait returns immediately.
/// Held by shared_ptr from both the loop and every in-flight callback, so
/// a completion that lands after the loop is torn down writes into a
/// queue nobody will read — harmless — instead of freed memory.
class CompletionQueue {
 public:
  CompletionQueue() {
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  }
  ~CompletionQueue() {
    if (wake_fd_ >= 0) ::close(wake_fd_);
  }

  int wake_fd() const { return wake_fd_; }

  void push(Completed item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(item));
    }
    wake();
  }

  void wake() {
    if (wake_fd_ < 0) return;
    const std::uint64_t one = 1;
    // Full eventfd counter (would need 2^64 unread wakes) degrades to a
    // missed edge, and the queue is re-drained every poll pass anyway.
    [[maybe_unused]] const ssize_t n =
        ::write(wake_fd_, &one, sizeof one);
  }

  /// Reset the eventfd *before* taking items: a push that slips between
  /// the two costs one spurious wakeup, never a lost item.
  std::vector<Completed> drain() {
    if (wake_fd_ >= 0) {
      std::uint64_t count = 0;
      [[maybe_unused]] const ssize_t n =
          ::read(wake_fd_, &count, sizeof count);
    }
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(items_, {});
  }

 private:
  int wake_fd_ = -1;
  std::mutex mu_;
  std::vector<Completed> items_;
};

/// Hashed timer wheel for idle timeouts. Lazy: entries are not moved on
/// connection activity; when one fires, the owner re-checks the real
/// last-activity time and either closes or asks for a reschedule. Slot
/// advancement is clamped to one lap, so a clock jump (fake clocks leap
/// hours) costs at most kSlots slot scans.
class TimerWheel {
 public:
  explicit TimerWheel(std::chrono::milliseconds timeout) {
    enabled_ = timeout.count() > 0;
    if (!enabled_) return;
    granularity_ms_ = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(timeout.count()) / 64, 10);
    slots_.resize(kSlots);
  }

  bool enabled() const { return enabled_; }
  int granularity_ms() const { return static_cast<int>(granularity_ms_); }

  void schedule(std::uint64_t conn_id, steady::time_point due) {
    if (!enabled_) return;
    // +1 rounds up (never fire early); clamping to the cursor keeps an
    // already-due entry in the very next slot to be scanned rather than a
    // slot the cursor just passed (which would wait a whole lap).
    const std::uint64_t tick =
        std::max<std::uint64_t>(tick_of(due) + 1, cursor_);
    slots_[tick % kSlots].push_back(Entry{conn_id, tick});
  }

  /// Visit every entry due at or before `now`; on_due(id) may call
  /// schedule() (entries it adds are in the future, so they are skipped
  /// even when appended to the slot being scanned).
  template <typename Fn>
  void advance(steady::time_point now, Fn&& on_due) {
    if (!enabled_) return;
    const std::uint64_t now_tick = tick_of(now);
    if (!started_) {
      started_ = true;
      cursor_ = now_tick;
    }
    if (now_tick < cursor_) return;
    const std::uint64_t span =
        std::min<std::uint64_t>(now_tick - cursor_ + 1, kSlots);
    for (std::uint64_t i = 0; i < span; ++i) {
      auto& slot = slots_[(cursor_ + i) % kSlots];
      for (std::size_t j = 0; j < slot.size();) {
        if (slot[j].due_tick <= now_tick) {
          const std::uint64_t id = slot[j].conn_id;
          slot[j] = slot.back();
          slot.pop_back();
          on_due(id);
        } else {
          ++j;
        }
      }
    }
    cursor_ = now_tick + 1;
  }

 private:
  struct Entry {
    std::uint64_t conn_id = 0;
    std::uint64_t due_tick = 0;
  };
  static constexpr std::size_t kSlots = 256;

  std::uint64_t tick_of(steady::time_point t) const {
    return static_cast<std::uint64_t>(
               std::chrono::duration_cast<std::chrono::milliseconds>(
                   t.time_since_epoch())
                   .count()) /
           granularity_ms_;
  }

  bool enabled_ = false;
  bool started_ = false;
  std::uint64_t granularity_ms_ = 1;
  std::uint64_t cursor_ = 0;
  std::vector<std::vector<Entry>> slots_;
};

struct ReadyLine {
  std::string line;
  bool is_error = false;
};

/// Why a connection is being closed — picks the counter to bump.
enum class CloseKind {
  kNatural,     // peer EOF / drain complete / post-error flush done
  kIdle,        // timer wheel
  kSlowReader,  // write buffer crossed write_close_bytes
  kError,       // read/write syscall error, epoll registration failure
};

struct Conn {
  int fd = -1;
  std::uint64_t id = 0;
  LineFramer framer;

  // Outgoing bytes: out[out_off..) is still to be written.
  std::string out;
  std::size_t out_off = 0;

  // Submission-order response delivery: request k on this connection gets
  // seq k; completions park in `ready` until every earlier seq has been
  // appended to `out`. Same contract as run_session's writer thread.
  std::uint64_t next_issue_seq = 0;
  std::uint64_t next_write_seq = 0;
  std::map<std::uint64_t, ReadyLine> ready;

  bool epoll_in = true;        // EPOLLIN currently armed
  bool epoll_out = false;      // EPOLLOUT currently armed
  bool stalled = false;        // reads paused by backpressure
  bool draining = false;       // no more reads; close once flushed
  bool doomed = false;         // close decided; reaped at end of pass
  steady::time_point last_activity{};
};

int set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

struct ReactorLoop::Impl {
  DiagnosisService& service;
  const data::FeatureSpace& fs;
  ReactorConfig config;
  const SessionHooks* hooks;
  ClockFn clock;
  std::shared_ptr<detail::ReactorCounters> counters;
  std::shared_ptr<CompletionQueue> cq;
  TimerWheel wheel;

  int epoll_fd = -1;
  int listener_fd = -1;
  bool listener_paused = false;
  std::function<void(int)> dispatch;

  const std::atomic<bool>* stop_source = nullptr;
  bool draining = false;
  steady::time_point drain_started{};

  std::uint64_t next_conn_id = kFirstConnId;
  std::unordered_map<std::uint64_t, Conn> conns;
  std::vector<std::uint64_t> doomed_ids;  // reaped at end of each pass
  std::atomic<std::size_t> open_count{0};

  std::mutex inbox_mu;
  std::vector<int> inbox;

  Impl(DiagnosisService& service_in, const data::FeatureSpace& fs_in,
       const ReactorConfig& config_in, const SessionHooks* hooks_in,
       ClockFn clock_in, std::shared_ptr<detail::ReactorCounters> counters_in)
      : service(service_in),
        fs(fs_in),
        config(config_in),
        hooks(hooks_in),
        clock(clock_in ? std::move(clock_in)
                       : ClockFn([] { return steady::now(); })),
        counters(counters_in ? std::move(counters_in)
                             : std::make_shared<detail::ReactorCounters>()),
        cq(std::make_shared<CompletionQueue>()),
        wheel(config.idle_timeout) {
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd >= 0 && cq->wake_fd() >= 0) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = kWakeupId;
      ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, cq->wake_fd(), &ev);
    }
  }

  ~Impl() {
    for (auto& [id, conn] : conns) ::close(conn.fd);
    {
      std::lock_guard<std::mutex> lock(inbox_mu);
      for (int fd : inbox) ::close(fd);
    }
    if (listener_fd >= 0) ::close(listener_fd);
    if (epoll_fd >= 0) ::close(epoll_fd);
  }

  // ---- connection lifecycle ------------------------------------------

  /// Refuse a socket that would exceed the global cap: one error line,
  /// best-effort, then close. Lives here (not in accept) so externally
  /// adopted fds — other loops' round-robin hand-offs, the test harness's
  /// socketpairs — hit the same admission control.
  bool refuse_if_over_capacity(int fd) {
    if (counters->active.load(std::memory_order_relaxed) <
        config.max_connections)
      return false;
    counters->over_capacity.fetch_add(1, std::memory_order_relaxed);
    DIAGNET_COUNT("reactor.over_capacity");
    const std::string refusal =
        format_error(0, util::Status::resource_exhausted(
                            "connection limit reached")) +
        "\n";
#if defined(MSG_NOSIGNAL)
    [[maybe_unused]] const ssize_t n =
        ::send(fd, refusal.data(), refusal.size(), MSG_NOSIGNAL);
#else
    [[maybe_unused]] const ssize_t n =
        ::write(fd, refusal.data(), refusal.size());
#endif
    ::close(fd);
    return true;
  }

  void adopt_now(int fd) {
    if (refuse_if_over_capacity(fd)) return;
    if (set_nonblocking(fd) != 0) {
      ::close(fd);
      return;
    }
    const std::uint64_t id = next_conn_id++;
    Conn conn;
    conn.fd = fd;
    conn.id = id;
    conn.framer = LineFramer(config.max_line_bytes);
    conn.last_activity = clock();

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      return;
    }
    if (config.idle_timeout.count() > 0)
      wheel.schedule(id, conn.last_activity + config.idle_timeout);
    const bool drain_now = draining;
    auto [it, inserted] = conns.emplace(id, std::move(conn));
    counters->accepted.fetch_add(1, std::memory_order_relaxed);
    counters->active.fetch_add(1, std::memory_order_relaxed);
    open_count.fetch_add(1, std::memory_order_relaxed);
    DIAGNET_COUNT("reactor.accepted");
    if (drain_now) {
      it->second.draining = true;
      update_state(it->second);
    }
  }

  void doom(Conn& conn, CloseKind kind) {
    if (conn.doomed) return;
    conn.doomed = true;
    doomed_ids.push_back(conn.id);
    switch (kind) {
      case CloseKind::kIdle:
        counters->idle_timeouts.fetch_add(1, std::memory_order_relaxed);
        DIAGNET_COUNT("reactor.idle_timeouts");
        break;
      case CloseKind::kSlowReader:
        counters->slow_reader_closes.fetch_add(1, std::memory_order_relaxed);
        DIAGNET_COUNT("reactor.slow_reader_closes");
        break;
      case CloseKind::kNatural:
      case CloseKind::kError:
        break;
    }
  }

  void finish_close(std::uint64_t id) {
    auto it = conns.find(id);
    if (it == conns.end()) return;
    Conn& conn = it->second;
    adjust_buffered(-(std::int64_t)(conn.out.size() - conn.out_off));
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conns.erase(it);
    counters->closed.fetch_add(1, std::memory_order_relaxed);
    counters->active.fetch_sub(1, std::memory_order_relaxed);
    open_count.fetch_sub(1, std::memory_order_relaxed);
    // An EMFILE-paused listener can make progress again now that a
    // descriptor freed up.
    if (listener_paused && listener_fd >= 0) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = kListenerId;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, listener_fd, &ev) == 0)
        listener_paused = false;
    }
  }

  int reap_doomed() {
    if (doomed_ids.empty()) return 0;
    int reaped = 0;
    for (const std::uint64_t id : doomed_ids) {
      finish_close(id);
      ++reaped;
    }
    doomed_ids.clear();
    return reaped;
  }

  void adjust_buffered(std::int64_t delta) {
    if (delta >= 0)
      counters->buffered_bytes.fetch_add(
          static_cast<std::uint64_t>(delta), std::memory_order_relaxed);
    else
      counters->buffered_bytes.fetch_sub(
          static_cast<std::uint64_t>(-delta), std::memory_order_relaxed);
  }

  // ---- I/O ------------------------------------------------------------

  void handle_readable(Conn& conn) {
    const steady::time_point now = clock();
    for (int round = 0; round < 8; ++round) {
      char buf[16384];
      const ssize_t n = ::read(conn.fd, buf, sizeof buf);
      if (n > 0) {
        conn.framer.feed(buf, static_cast<std::size_t>(n));
        conn.last_activity = now;
        if (conn.framer.overflowed()) break;
        if (static_cast<std::size_t>(n) < sizeof buf) break;
      } else if (n == 0) {
        // Peer half-closed: answer what it already sent, then close.
        conn.draining = true;
        break;
      } else if (errno == EINTR) {
        continue;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      } else {
        doom(conn, CloseKind::kError);
        return;
      }
    }
    std::string line;
    while (!conn.doomed && conn.framer.next(&line)) process_line(conn, line);
    if (conn.doomed) return;
    if (conn.framer.overflowed()) {
      counters->oversized_lines.fetch_add(1, std::memory_order_relaxed);
      DIAGNET_COUNT("reactor.oversized_lines");
      deliver_immediate(
          conn,
          format_error(0, util::Status::invalid_argument(
                              "request line exceeds " +
                              std::to_string(config.max_line_bytes) +
                              " bytes")),
          /*is_error=*/true);
      conn.draining = true;  // flush the error, then close
    }
    update_state(conn);
  }

  void handle_writable(Conn& conn) {
    flush(conn);
    if (!conn.doomed) update_state(conn);
  }

  void flush(Conn& conn) {
    const steady::time_point now = clock();
    while (conn.out_off < conn.out.size()) {
#if defined(MSG_NOSIGNAL)
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
#else
      const ssize_t n = ::write(conn.fd, conn.out.data() + conn.out_off,
                                conn.out.size() - conn.out_off);
#endif
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
        conn.last_activity = now;
        adjust_buffered(-n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        doom(conn, CloseKind::kError);
        return;
      }
    }
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    } else if (conn.out_off > (64u << 10) &&
               conn.out_off * 2 > conn.out.size()) {
      conn.out.erase(0, conn.out_off);
      conn.out_off = 0;
    }
  }

  /// Recompute epoll interest + backpressure state after any change to a
  /// connection's buffers, and close it when its work is done.
  void update_state(Conn& conn) {
    if (conn.doomed) return;
    const std::size_t pending = conn.out.size() - conn.out_off;
    if (pending > config.write_close_bytes) {
      doom(conn, CloseKind::kSlowReader);
      return;
    }
    const bool want_read = !conn.draining && !conn.framer.overflowed();
    if (want_read) {
      if (!conn.stalled && pending > config.write_stall_bytes) {
        conn.stalled = true;
        counters->backpressure_stalls.fetch_add(1,
                                                std::memory_order_relaxed);
        DIAGNET_COUNT("reactor.backpressure_stalls");
      } else if (conn.stalled && pending <= config.write_resume_bytes) {
        conn.stalled = false;
      }
    }
    const bool all_answered = conn.next_write_seq == conn.next_issue_seq;
    if (pending == 0 && all_answered && conn.draining) {
      doom(conn, CloseKind::kNatural);
      return;
    }
    const bool arm_in = want_read && !conn.stalled;
    const bool arm_out = pending > 0;
    if (arm_in != conn.epoll_in || arm_out != conn.epoll_out) {
      epoll_event ev{};
      ev.events = (arm_in ? EPOLLIN : 0u) | (arm_out ? EPOLLOUT : 0u);
      ev.data.u64 = conn.id;
      if (::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
        conn.epoll_in = arm_in;
        conn.epoll_out = arm_out;
      }
    }
  }

  // ---- request processing --------------------------------------------

  void deliver_immediate(Conn& conn, std::string line, bool is_error) {
    const std::uint64_t seq = conn.next_issue_seq++;
    enqueue_response(conn, seq, std::move(line), is_error);
  }

  void enqueue_response(Conn& conn, std::uint64_t seq, std::string line,
                        bool is_error) {
    conn.ready.emplace(seq, ReadyLine{std::move(line), is_error});
    while (!conn.ready.empty() &&
           conn.ready.begin()->first == conn.next_write_seq) {
      auto node = conn.ready.begin();
      adjust_buffered(static_cast<std::int64_t>(node->second.line.size()) +
                      1);
      conn.out += node->second.line;
      conn.out += '\n';
      counters->responses.fetch_add(1, std::memory_order_relaxed);
      if (node->second.is_error)
        counters->protocol_errors.fetch_add(1, std::memory_order_relaxed);
      ++conn.next_write_seq;
      conn.ready.erase(node);
    }
    flush(conn);
  }

  /// One request line through the shared handler (serve/server.h). A
  /// diagnosis is formatted off-loop, on the dispatcher thread (or
  /// synchronously for an immediate rejection), and only the finished
  /// string crosses the completion queue.
  void process_line(Conn& conn, const std::string& line) {
    if (line.empty()) return;
    counters->requests.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t seq = conn.next_issue_seq++;
    std::optional<AnswerLine> immediate = handle_request_line(
        service, fs, line, config.default_top_k, hooks,
        [queue = cq, conn_id = conn.id, seq](AnswerLine answer) {
          Completed done;
          done.conn_id = conn_id;
          done.seq = seq;
          done.is_error = answer.is_error;
          done.line = std::move(answer.line);
          queue->push(std::move(done));
        },
        clock);
    if (immediate)
      enqueue_response(conn, seq, std::move(immediate->line),
                       immediate->is_error);
  }

  // ---- accept ---------------------------------------------------------

  int do_accept() {
    int accepted = 0;
    while (listener_fd >= 0 && !listener_paused) {
      const int fd = ::accept4(listener_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR) continue;
        if (errno == EMFILE || errno == ENFILE) {
          // Out of descriptors: stop polling the listener (otherwise LT
          // epoll spins on it) until a close frees one.
          epoll_event ev{};
          ev.events = 0;
          ev.data.u64 = kListenerId;
          if (::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, listener_fd, &ev) == 0)
            listener_paused = true;
        }
        break;  // EAGAIN, ECONNABORTED, ...: try again on the next event
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      // Refusal at accept, before the round-robin hand-off, so a flood at
      // the cap never bounces through another loop's inbox first (adopt_now
      // re-checks for fds adopted directly).
      if (refuse_if_over_capacity(fd)) continue;
      ++accepted;
      if (dispatch)
        dispatch(fd);
      else
        adopt_now(fd);
    }
    return accepted;
  }

  // ---- drains ---------------------------------------------------------

  int drain_inbox() {
    std::vector<int> fds;
    {
      std::lock_guard<std::mutex> lock(inbox_mu);
      fds.swap(inbox);
    }
    for (const int fd : fds) adopt_now(fd);
    return static_cast<int>(fds.size());
  }

  int drain_completions() {
    std::vector<Completed> items = cq->drain();
    for (Completed& item : items) {
      auto it = conns.find(item.conn_id);
      if (it == conns.end() || it->second.doomed) continue;  // gone: drop
      Conn& conn = it->second;
      enqueue_response(conn, item.seq, std::move(item.line), item.is_error);
      if (!conn.doomed) update_state(conn);
    }
    return static_cast<int>(items.size());
  }

  void begin_drain() {
    draining = true;
    drain_started = clock();
    if (listener_fd >= 0) {
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listener_fd, nullptr);
      ::close(listener_fd);
      listener_fd = -1;
    }
    for (auto& [id, conn] : conns) {
      if (conn.doomed) continue;
      conn.draining = true;
      update_state(conn);
    }
  }

  int force_close_all() {
    int forced = 0;
    for (auto& [id, conn] : conns) {
      if (conn.doomed) continue;
      doom(conn, CloseKind::kNatural);
      ++forced;
    }
    return forced;
  }

  void advance_timers() {
    if (!wheel.enabled()) return;
    const steady::time_point now = clock();
    wheel.advance(now, [&](std::uint64_t id) {
      auto it = conns.find(id);
      if (it == conns.end() || it->second.doomed) return;
      Conn& conn = it->second;
      const steady::time_point idle_at =
          conn.last_activity + config.idle_timeout;
      if (idle_at <= now)
        doom(conn, CloseKind::kIdle);
      else
        wheel.schedule(id, idle_at);
    });
  }

  void publish_gauges() {
    DIAGNET_GAUGE_SET(
        "reactor.open_connections",
        static_cast<double>(counters->active.load(std::memory_order_relaxed)));
    DIAGNET_GAUGE_SET("reactor.buffered_bytes",
                      static_cast<double>(counters->buffered_bytes.load(
                          std::memory_order_relaxed)));
  }

  // ---- the pass -------------------------------------------------------

  int poll_once(int timeout_ms) {
    int work = 0;
    if (stop_source != nullptr && stop_source->load() && !draining) {
      begin_drain();
      ++work;
    }
    work += drain_inbox();
    work += drain_completions();
    if (draining) {
      if (clock() - drain_started >= config.drain_timeout)
        work += force_close_all();
      work += reap_doomed();
      if (conns.empty()) return work;  // fully drained: never block again
    }
    int wait = timeout_ms;
    if (wheel.enabled() &&
        (wait < 0 || wait > wheel.granularity_ms()))
      wait = wheel.granularity_ms();
    epoll_event events[64];
    int n = ::epoll_wait(epoll_fd, events, 64, wait);
    if (n < 0) n = 0;  // EINTR: treat as a timeout tick
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kWakeupId) {
        work += drain_completions();
        work += drain_inbox();
      } else if (id == kListenerId) {
        work += do_accept();
      } else {
        auto it = conns.find(id);
        if (it == conns.end()) continue;
        Conn& conn = it->second;
        if (conn.doomed) continue;
        if (events[i].events & EPOLLIN) handle_readable(conn);
        if (!conn.doomed && (events[i].events & EPOLLOUT))
          handle_writable(conn);
        if (!conn.doomed &&
            (events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
            (events[i].events & EPOLLIN) == 0)
          doom(conn, CloseKind::kError);
        ++work;
      }
    }
    advance_timers();
    work += reap_doomed();
    publish_gauges();
    return work;
  }
};

ReactorLoop::ReactorLoop(DiagnosisService& service,
                         const data::FeatureSpace& fs,
                         const ReactorConfig& config,
                         const SessionHooks* hooks, ClockFn clock,
                         std::shared_ptr<detail::ReactorCounters> counters)
    : impl_(std::make_unique<Impl>(service, fs, config, hooks,
                                   std::move(clock), std::move(counters))) {}

ReactorLoop::~ReactorLoop() = default;

util::Status ReactorLoop::adopt(int fd) {
  if (impl_->epoll_fd < 0)
    return util::Status::unavailable("reactor: epoll is not available");
  {
    std::lock_guard<std::mutex> lock(impl_->inbox_mu);
    impl_->inbox.push_back(fd);
  }
  wake();
  return {};
}

void ReactorLoop::attach_listener(int listener_fd,
                                  std::function<void(int)> dispatch) {
  set_nonblocking(listener_fd);
  impl_->listener_fd = listener_fd;
  impl_->dispatch = std::move(dispatch);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  ::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, listener_fd, &ev);
}

int ReactorLoop::poll_once(int timeout_ms) {
  return impl_->poll_once(timeout_ms);
}

void ReactorLoop::wake() { impl_->cq->wake(); }

void ReactorLoop::set_stop_source(const std::atomic<bool>* stop) {
  impl_->stop_source = stop;
}

bool ReactorLoop::drained() const {
  return impl_->draining && impl_->conns.empty();
}

std::size_t ReactorLoop::open_connections() const {
  return impl_->open_count.load(std::memory_order_relaxed);
}

ReactorStats ReactorLoop::stats() const { return impl_->counters->snapshot(); }

// ---- multi-loop reactor ------------------------------------------------

Reactor::Reactor(DiagnosisService& service, const data::FeatureSpace& fs,
                 ReactorConfig config, const SessionHooks* hooks,
                 ReactorLoop::ClockFn clock)
    : config_(std::move(config)),
      counters_(std::make_shared<detail::ReactorCounters>()) {
  if (config_.loops == 0) config_.loops = 1;
  for (std::size_t i = 0; i < config_.loops; ++i)
    loops_.push_back(std::make_unique<ReactorLoop>(
        service, fs, config_, hooks, clock, counters_));
}

Reactor::~Reactor() = default;

util::Status Reactor::listen(std::uint16_t port,
                             std::atomic<std::uint16_t>* bound_port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0)
    return util::Status::unavailable("reactor: socket() failed");
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  // Deep backlog: an open-loop load test connects tens of thousands of
  // sockets in a burst, and SYNs beyond the backlog are dropped.
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 4096) != 0) {
    ::close(listener);
    return util::Status::unavailable(
        "reactor: cannot listen on 127.0.0.1:" + std::to_string(port));
  }
  socklen_t addr_len = sizeof addr;
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  if (bound_port != nullptr) bound_port->store(ntohs(addr.sin_port));
  std::fprintf(stderr, "serve: listening on 127.0.0.1:%u (epoll, %zu %s)\n",
               static_cast<unsigned>(ntohs(addr.sin_port)), config_.loops,
               config_.loops == 1 ? "loop" : "loops");

  listener_fd_ = listener;
  loops_[0]->attach_listener(listener, [this](int conn_fd) {
    const std::size_t i =
        round_robin_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    if (!loops_[i]->adopt(conn_fd).ok()) ::close(conn_fd);
  });
  return {};
}

util::Status Reactor::run(const std::atomic<bool>& stop_flag) {
  for (auto& loop : loops_) loop->set_stop_source(&stop_flag);
  const auto body = [](ReactorLoop* loop) {
    while (!loop->drained()) loop->poll_once(50);
  };
  std::vector<std::thread> threads;
  threads.reserve(loops_.size() - 1);
  for (std::size_t i = 1; i < loops_.size(); ++i)
    threads.emplace_back(body, loops_[i].get());
  body(loops_[0].get());
  for (auto& t : threads) t.join();
  return {};
}

ReactorStats Reactor::stats() const { return counters_->snapshot(); }

#else  // !DIAGNET_SERVE_HAS_EPOLL

struct ReactorLoop::Impl {};

ReactorLoop::ReactorLoop(DiagnosisService&, const data::FeatureSpace&,
                         const ReactorConfig&, const SessionHooks*, ClockFn,
                         std::shared_ptr<detail::ReactorCounters>) {}
ReactorLoop::~ReactorLoop() = default;

util::Status ReactorLoop::adopt(int) {
  return util::Status::unavailable(
      "the epoll reactor is not available on this platform");
}
void ReactorLoop::attach_listener(int, std::function<void(int)>) {}
int ReactorLoop::poll_once(int) { return 0; }
void ReactorLoop::wake() {}
void ReactorLoop::set_stop_source(const std::atomic<bool>*) {}
bool ReactorLoop::drained() const { return true; }
std::size_t ReactorLoop::open_connections() const { return 0; }
ReactorStats ReactorLoop::stats() const { return {}; }

Reactor::Reactor(DiagnosisService&, const data::FeatureSpace&,
                 ReactorConfig config, const SessionHooks*,
                 ReactorLoop::ClockFn)
    : config_(std::move(config)),
      counters_(std::make_shared<detail::ReactorCounters>()) {}
Reactor::~Reactor() = default;

util::Status Reactor::listen(std::uint16_t, std::atomic<std::uint16_t>*) {
  return util::Status::unavailable(
      "the epoll reactor is not available on this platform; use the stdio "
      "transport (serve without --port)");
}

util::Status Reactor::run(const std::atomic<bool>&) {
  return util::Status::unavailable(
      "the epoll reactor is not available on this platform; use the stdio "
      "transport (serve without --port)");
}

ReactorStats Reactor::stats() const { return counters_->snapshot(); }

#endif  // DIAGNET_SERVE_HAS_EPOLL

}  // namespace diagnet::serve
