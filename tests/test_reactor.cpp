// Integration tests for the epoll reactor (src/serve/reactor.h), driven
// through the deterministic harness in src/testkit/reactor_sim.h: every
// edge case — idle timeout, backpressure stall/resume, slow-reader close,
// oversized lines, the connection cap, graceful drain — runs on socketpair
// connections and an injectable fake clock, with zero sleeps in the
// reactor-side assertions. The real-TCP suite at the bottom pins the
// cross-transport contract: the stdio session and the reactor answer the
// same request pool byte-identically.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/diagnet.h"
#include "serve/reactor.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/wire.h"
#include "testkit/reactor_sim.h"
#include "util/status.h"

#if defined(__linux__)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace diagnet {
namespace {

using testkit::ReactorSim;
using testkit::ReactorSimOptions;
using testkit::SimConn;
using std::chrono::milliseconds;

/// Strip the volatile suffix of a wire response: everything from
/// ",\"latency_ms\"" (success) or ",\"request_id\"" (error) on differs
/// run to run; the canonical prefix — id, ok, causes, scores — must not.
std::string canonical(const std::string& line) {
  std::size_t pos = line.find(",\"latency_ms\"");
  if (pos == std::string::npos) pos = line.find(",\"request_id\"");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

#if defined(__linux__)

// ---------------------------------------------------------------------------
// Round trips through the simulated reactor

TEST(ReactorSim, RoundTripMatchesDirectDiagnosisBitForBit) {
  ReactorSim sim;
  SimConn conn = sim.connect();
  ASSERT_TRUE(conn.valid());

  ASSERT_TRUE(conn.send(sim.request_line(0, 7) + "\n"));
  std::string line;
  ASSERT_TRUE(sim.wait_line(conn, &line));

  // The wire response must be bit-identical (scores render with %.17g,
  // which round-trips doubles exactly) to diagnosing the same sample
  // directly against the same model, with no transport in between.
  const auto parsed = serve::parse_request(sim.request_line(0, 7));
  ASSERT_TRUE(parsed.ok());
  core::DiagnoseResponse reference =
      testkit::tiny_serving_model()->diagnose(parsed.value().request);
  ASSERT_TRUE(reference.ok()) << reference.status.to_string();
  const std::string expected = serve::format_response(
      7, reference.diagnosis, sim.fs(), /*top_k=*/5, /*latency_ms=*/0.0);
  EXPECT_EQ(canonical(line), canonical(expected));

  const serve::ReactorStats stats = sim.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.responses, 1u);
  EXPECT_EQ(stats.errors(), 0u);
}

TEST(ReactorSim, PipelinedBurstAnswersInSubmissionOrder) {
  ReactorSim sim;
  SimConn conn = sim.connect();

  constexpr std::uint64_t kRequests = 12;
  std::string burst;
  for (std::uint64_t id = 1; id <= kRequests; ++id)
    burst += sim.request_line(id, id) + "\n";
  ASSERT_TRUE(conn.send(burst));  // one write: maximal pipelining

  for (std::uint64_t id = 1; id <= kRequests; ++id) {
    std::string line;
    ASSERT_TRUE(sim.wait_line(conn, &line)) << "response " << id;
    EXPECT_NE(line.find("\"id\":" + std::to_string(id) + ","),
              std::string::npos)
        << "out of submission order at " << id << ": " << line;
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  }
  EXPECT_EQ(sim.stats().responses, kRequests);
}

TEST(ReactorSim, MalformedLineAnswersErrorAndKeepsConnection) {
  ReactorSim sim;
  SimConn conn = sim.connect();

  ASSERT_TRUE(conn.send("this is not json\n"));
  std::string line;
  ASSERT_TRUE(sim.wait_line(conn, &line));
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line.find("invalid_argument"), std::string::npos);

  // The connection survives a protocol error; a valid request still works.
  ASSERT_TRUE(conn.send(sim.request_line(1, 9) + "\n"));
  ASSERT_TRUE(sim.wait_line(conn, &line));
  EXPECT_NE(line.find("\"id\":9,\"ok\":true"), std::string::npos) << line;

  const serve::ReactorStats stats = sim.stats();
  EXPECT_EQ(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.errors(), 0u) << "client mistakes are not reactor errors";
}

TEST(ReactorSim, InBandStatszAnswersViaHooks) {
  ReactorSim sim;
  sim.statsz_payload = "{\"answered\":\"in-band\"}";
  SimConn conn = sim.connect();

  ASSERT_TRUE(conn.send("{\"cmd\":\"statsz\"}\n"));
  std::string line;
  ASSERT_TRUE(sim.wait_line(conn, &line));
  EXPECT_EQ(line, sim.statsz_payload);
}

TEST(ReactorSim, ClientEofDrainsInFlightResponsesThenCloses) {
  ReactorSim sim;
  SimConn conn = sim.connect();

  ASSERT_TRUE(conn.send(sim.request_line(0, 1) + "\n" +
                        sim.request_line(1, 2) + "\n"));
  conn.finish_writing();  // EOF before any response was read

  // Both answers still arrive, then the reactor closes its end.
  std::string line;
  ASSERT_TRUE(sim.wait_line(conn, &line));
  EXPECT_NE(line.find("\"id\":1,\"ok\":true"), std::string::npos);
  ASSERT_TRUE(sim.wait_line(conn, &line));
  EXPECT_NE(line.find("\"id\":2,\"ok\":true"), std::string::npos);
  EXPECT_FALSE(sim.wait_line(conn, &line, /*max_passes=*/64));
  EXPECT_TRUE(conn.eof());

  const serve::ReactorStats stats = sim.stats();
  EXPECT_EQ(stats.responses, 2u);
  EXPECT_EQ(stats.closed, 1u);
  EXPECT_EQ(stats.active, 0u);
}

// ---------------------------------------------------------------------------
// Idle timeouts on the fake clock — no sleeps anywhere

TEST(ReactorSim, IdleConnectionTimesOutOnFakeClock) {
  ReactorSimOptions options;
  options.reactor.idle_timeout = milliseconds(5000);
  ReactorSim sim(options);
  SimConn conn = sim.connect();

  // Under the timeout: nothing happens no matter how often we pump.
  sim.clock().advance(milliseconds(4000));
  sim.pump_until_idle();
  EXPECT_EQ(sim.stats().idle_timeouts, 0u);
  EXPECT_EQ(sim.stats().active, 1u);

  // Past it: the wheel fires, the connection is closed, the client sees
  // EOF. Total fake time elapsed: 6 s; wall time: microseconds.
  sim.clock().advance(milliseconds(2000));
  sim.pump_until_idle();
  EXPECT_EQ(sim.stats().idle_timeouts, 1u);
  EXPECT_EQ(sim.stats().active, 0u);
  EXPECT_FALSE(conn.drain());
  EXPECT_TRUE(conn.eof());
}

TEST(ReactorSim, ActivityResetsTheIdleClock) {
  ReactorSimOptions options;
  options.reactor.idle_timeout = milliseconds(5000);
  ReactorSim sim(options);
  SimConn conn = sim.connect();

  // Traffic at +4 s: the lazily-rescheduled wheel entry must push the
  // deadline out to +9 s, not fire at the original +5 s.
  sim.clock().advance(milliseconds(4000));
  ASSERT_TRUE(conn.send(sim.request_line(0, 1) + "\n"));
  std::string line;
  ASSERT_TRUE(sim.wait_line(conn, &line));

  sim.clock().advance(milliseconds(4000));  // +8 s, idle for only 4 s
  sim.pump_until_idle();
  EXPECT_EQ(sim.stats().idle_timeouts, 0u);
  EXPECT_EQ(sim.stats().active, 1u);

  sim.clock().advance(milliseconds(2000));  // +10 s, idle for 6 s
  sim.pump_until_idle();
  EXPECT_EQ(sim.stats().idle_timeouts, 1u);
  EXPECT_FALSE(conn.drain());
}

// ---------------------------------------------------------------------------
// Backpressure: stall, resume, slow-reader close

TEST(ReactorSim, BackpressureStallsReadsAndResumesAfterDrain) {
  ReactorSimOptions options;
  options.socket_buffer_bytes = 4096;  // tiny kernel pipes
  options.reactor.write_stall_bytes = 8 << 10;
  options.reactor.write_resume_bytes = 2 << 10;
  options.reactor.write_close_bytes = 1 << 20;  // out of reach here
  ReactorSim sim(options);
  sim.statsz_payload = std::string(16 << 10, 'x');  // 16 KB per response
  SimConn conn = sim.connect();

  // Three 16 KB responses against a ~4 KB pipe the client is not reading:
  // the write buffer crosses the stall watermark and reads are paused.
  ASSERT_TRUE(conn.send("{\"cmd\":\"statsz\"}\n{\"cmd\":\"statsz\"}\n"
                        "{\"cmd\":\"statsz\"}\n"));
  sim.pump_until_idle();
  serve::ReactorStats stats = sim.stats();
  EXPECT_GE(stats.backpressure_stalls, 1u);
  EXPECT_GT(stats.buffered_bytes, 0u);
  EXPECT_EQ(stats.slow_reader_closes, 0u);

  // The client starts reading: the buffer drains, reads resume, and all
  // three payloads arrive intact.
  std::string line;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sim.wait_line(conn, &line)) << "payload " << i;
    EXPECT_EQ(line, sim.statsz_payload) << "payload " << i;
  }
  EXPECT_EQ(sim.stats().buffered_bytes, 0u);

  // Resumed for real: a normal request round-trips again.
  ASSERT_TRUE(conn.send(sim.request_line(0, 42) + "\n"));
  ASSERT_TRUE(sim.wait_line(conn, &line));
  EXPECT_NE(line.find("\"id\":42,\"ok\":true"), std::string::npos) << line;
  EXPECT_EQ(sim.stats().slow_reader_closes, 0u);
}

TEST(ReactorSim, SlowReaderIsClosedAtTheHardCap) {
  ReactorSimOptions options;
  options.socket_buffer_bytes = 4096;
  options.reactor.write_stall_bytes = 8 << 10;
  options.reactor.write_resume_bytes = 2 << 10;
  options.reactor.write_close_bytes = 32 << 10;  // hard cap: 32 KB
  ReactorSim sim(options);
  sim.statsz_payload = std::string(16 << 10, 'x');
  SimConn conn = sim.connect();

  // Four 16 KB responses arrive in one read burst (they were pipelined in
  // a single packet), so ~64 KB lands in the write buffer at once — past
  // the hard cap. The reactor must kill the connection, not buffer on.
  ASSERT_TRUE(conn.send("{\"cmd\":\"statsz\"}\n{\"cmd\":\"statsz\"}\n"
                        "{\"cmd\":\"statsz\"}\n{\"cmd\":\"statsz\"}\n"));
  sim.pump_until_idle();

  const serve::ReactorStats stats = sim.stats();
  EXPECT_EQ(stats.slow_reader_closes, 1u);
  EXPECT_GE(stats.errors(), 1u);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.buffered_bytes, 0u) << "close must release its buffer";

  while (conn.drain()) sim.pump();  // whatever the kernel held, then EOF
  EXPECT_TRUE(conn.eof());
}

// ---------------------------------------------------------------------------
// Framing limit and connection cap

TEST(ReactorSim, OversizedLineAnswersOneErrorThenCloses) {
  ReactorSimOptions options;
  options.reactor.max_line_bytes = 256;
  ReactorSim sim(options);
  SimConn conn = sim.connect();

  ASSERT_TRUE(conn.send(std::string(400, 'z') + "\n"));
  std::string line;
  ASSERT_TRUE(sim.wait_line(conn, &line));
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line.find("invalid_argument"), std::string::npos);
  EXPECT_NE(line.find("256"), std::string::npos) << line;
  EXPECT_FALSE(sim.wait_line(conn, &line, /*max_passes=*/64));
  EXPECT_TRUE(conn.eof());

  const serve::ReactorStats stats = sim.stats();
  EXPECT_EQ(stats.oversized_lines, 1u);
  EXPECT_GE(stats.errors(), 1u);
  EXPECT_EQ(stats.active, 0u);
}

TEST(ReactorSim, ConnectionCapRefusesWithOneErrorLine) {
  ReactorSimOptions options;
  options.reactor.max_connections = 2;
  ReactorSim sim(options);

  SimConn first = sim.connect();
  SimConn second = sim.connect();
  EXPECT_EQ(sim.stats().accepted, 2u);

  SimConn third = sim.connect();  // over the cap: refused at adoption
  std::string line;
  ASSERT_TRUE(sim.wait_line(third, &line, /*max_passes=*/64));
  EXPECT_NE(line.find("resource_exhausted"), std::string::npos) << line;
  EXPECT_NE(line.find("connection limit reached"), std::string::npos);
  third.drain();
  EXPECT_TRUE(third.eof());

  const serve::ReactorStats stats = sim.stats();
  EXPECT_EQ(stats.over_capacity, 1u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.active, 2u);

  // Admitted connections are unaffected and still serve.
  ASSERT_TRUE(first.send(sim.request_line(0, 5) + "\n"));
  ASSERT_TRUE(sim.wait_line(first, &line));
  EXPECT_NE(line.find("\"id\":5,\"ok\":true"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Graceful drain

TEST(ReactorSim, StopFlagDrainsInFlightResponsesBeforeClosing) {
  ReactorSim sim;
  SimConn conn = sim.connect();

  ASSERT_TRUE(conn.send(sim.request_line(0, 3) + "\n"));
  // Let the reactor read + submit the request so it is genuinely in
  // flight (a drain stops *reading*, so an unread line would simply be
  // discarded with the connection — the correct, but different, path).
  for (int i = 0; i < 100 && sim.stats().requests == 0; ++i) sim.pump(50);
  ASSERT_EQ(sim.stats().requests, 1u);
  std::atomic<bool> stop{true};
  sim.loop().set_stop_source(&stop);

  // The drain must flush the in-flight diagnosis before the close.
  std::string line;
  ASSERT_TRUE(sim.wait_line(conn, &line));
  EXPECT_NE(line.find("\"id\":3,\"ok\":true"), std::string::npos) << line;
  EXPECT_FALSE(sim.wait_line(conn, &line, /*max_passes=*/64));
  EXPECT_TRUE(conn.eof());
  EXPECT_TRUE(sim.loop().drained());
  EXPECT_EQ(sim.stats().closed, 1u);
}

// ---------------------------------------------------------------------------
// Cross-transport bit-exactness: stdio session vs the reactor over TCP

/// Blocking loopback client: connect, send every line, half-close, read
/// to EOF. The reactor answers in submission order and closes after the
/// drain, so "read to EOF" collects exactly the full response sequence.
std::vector<std::string> exchange_over_tcp(
    std::uint16_t port, const std::vector<std::string>& lines) {
  int fd = -1;
  for (int attempt = 0; attempt < 200 && fd < 0; ++attempt) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) break;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0)
      break;
    ::close(fd);
    fd = -1;
    std::this_thread::sleep_for(milliseconds(10));
  }
  if (fd < 0) return {};

  std::string all;
  for (const std::string& line : lines) all += line + "\n";
  std::size_t off = 0;
  while (off < all.size()) {
    const ssize_t n =
        ::send(fd, all.data() + off, all.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);

  std::string in;
  char buf[4096];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;)
    in.append(buf, static_cast<std::size_t>(n));
  ::close(fd);

  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i < in.size(); ++i)
    if (in[i] == '\n') {
      out.emplace_back(in, start, i - start);
      start = i + 1;
    }
  return out;
}

TEST(CrossTransport, StdioSessionAndReactorAnswerByteIdentically) {
  auto provider =
      std::make_shared<serve::ModelProvider>(testkit::tiny_serving_model());
  serve::ServiceConfig config;
  config.max_delay_us = 2'000;
  serve::DiagnosisService service(provider, config);
  const data::FeatureSpace& fs = testkit::tiny_serving_space();

  // The shared request pool: valid requests across the sample pool, one
  // malformed line, one wrong-width request — error paths must match too.
  std::vector<std::string> pool;
  for (std::uint64_t id = 1; id <= 20; ++id)
    pool.push_back(testkit::tiny_request_line(id, id));
  pool.push_back("this is not json");
  pool.push_back("{\"id\":99,\"features\":[1,2,3]}");

  // Transport A: the stdio session over string streams.
  std::vector<std::string> via_stdio;
  {
    std::string all;
    for (const std::string& line : pool) all += line + "\n";
    std::istringstream in(all);
    std::ostringstream out;
    serve::run_session(service, fs, in, out, /*default_top_k=*/5);
    std::istringstream answers(out.str());
    for (std::string line; std::getline(answers, line);)
      via_stdio.push_back(line);
  }

  // Transport B: the epoll reactor, same service, same pool.
  std::vector<std::string> via_epoll;
  {
    serve::Reactor reactor(service, fs, serve::ReactorConfig{});
    std::atomic<std::uint16_t> bound{0};
    ASSERT_TRUE(reactor.listen(/*port=*/0, &bound).ok());
    std::atomic<bool> stop{false};
    std::thread runner([&] {
      const util::Status status = reactor.run(stop);
      EXPECT_TRUE(status.ok()) << status.to_string();
    });
    via_epoll = exchange_over_tcp(bound.load(), pool);
    stop.store(true);
    runner.join();
    EXPECT_EQ(reactor.stats().errors(), 0u);
  }
  service.stop();

  // Same number of responses, in submission order, and — modulo the
  // volatile latency/request_id/trace suffix — byte-identical bodies.
  ASSERT_EQ(via_stdio.size(), pool.size());
  ASSERT_EQ(via_epoll.size(), pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    SCOPED_TRACE("response " + std::to_string(i));
    EXPECT_EQ(canonical(via_epoll[i]), canonical(via_stdio[i]));
  }
}

#else  // !__linux__

TEST(ReactorSim, UnsupportedPlatformReportsUnavailable) {
  EXPECT_FALSE(serve::reactor_supported());
}

#endif  // __linux__

}  // namespace
}  // namespace diagnet
