#include "serve/statsz.h"

#include <cctype>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/report.h"
#include "obs/telemetry.h"
#include "tensor/dispatch.h"

#if defined(__unix__) || defined(__APPLE__)
#define DIAGNET_SERVE_HAS_TCP 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define DIAGNET_SERVE_HAS_TCP 0
#endif

namespace diagnet::serve {

namespace {

using clock = std::chrono::steady_clock;

void append_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

std::string checksum_hex(std::uint64_t checksum) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(checksum));
  return buf;
}

/// Prometheus metric name: "serve.latency_ms" -> "diagnet_serve_latency_ms"
/// (the exposition grammar only allows [a-zA-Z0-9_:]).
std::string prom_name(const std::string& name) {
  std::string out = "diagnet_";
  for (const char c : name) {
    const unsigned char u = static_cast<unsigned char>(c);
    out += (std::isalnum(u) || c == ':') ? c : '_';
  }
  return out;
}

}  // namespace

std::string statsz_json(const StatszSource& source) {
  std::string out = "{";
  out += "\"uptime_s\":";
  append_number(out, std::chrono::duration<double>(clock::now() -
                                                   source.start)
                         .count());
  if (source.service != nullptr) {
    const DiagnosisService::Stats stats = source.service->stats();
    out += ",\"queue_depth\":" +
           std::to_string(source.service->queue_depth());
    out += ",\"in_flight_batches\":" +
           std::to_string(source.service->in_flight_batches());
    out += ",\"service\":{";
    out += "\"accepted\":" + std::to_string(stats.accepted);
    out += ",\"rejected\":" + std::to_string(stats.rejected);
    out += ",\"shed\":" + std::to_string(stats.shed);
    out += ",\"completed\":" + std::to_string(stats.completed);
    out += ",\"batches\":" + std::to_string(stats.batches);
    out += ",\"queue_capacity\":" +
           std::to_string(source.service->config().queue_capacity);
    out += ",\"max_batch\":" +
           std::to_string(source.service->config().max_batch);
    out += '}';
  }
  if (source.reactor != nullptr) {
    const ReactorStats r = source.reactor->stats();
    out += ",\"reactor\":{";
    out += "\"loops\":" + std::to_string(source.reactor->config().loops);
    out += ",\"open_connections\":" + std::to_string(r.active);
    out += ",\"accepted\":" + std::to_string(r.accepted);
    out += ",\"closed\":" + std::to_string(r.closed);
    out += ",\"requests\":" + std::to_string(r.requests);
    out += ",\"responses\":" + std::to_string(r.responses);
    out += ",\"buffered_bytes\":" + std::to_string(r.buffered_bytes);
    out += ",\"idle_timeouts\":" + std::to_string(r.idle_timeouts);
    out += ",\"backpressure_stalls\":" +
           std::to_string(r.backpressure_stalls);
    out += ",\"slow_reader_closes\":" +
           std::to_string(r.slow_reader_closes);
    out += ",\"over_capacity\":" + std::to_string(r.over_capacity);
    out += ",\"oversized_lines\":" + std::to_string(r.oversized_lines);
    out += ",\"protocol_errors\":" + std::to_string(r.protocol_errors);
    // The serving-SLO rollup: reactor-level failures only (not client
    // mistakes); the CI loadgen gate asserts this stays 0.
    out += ",\"errors\":" + std::to_string(r.errors());
    out += '}';
  }
  if (source.provider != nullptr) {
    out += ",\"model\":{";
    out += "\"generation\":" + std::to_string(source.provider->generation());
    out += ",\"checksum\":\"" + checksum_hex(source.provider->checksum());
    out += "\"";
    const auto model = source.provider->current();
    if (model != nullptr) {
      out += ",\"specialized_services\":[";
      bool first = true;
      for (const std::size_t s : model->specialized_services()) {
        if (!first) out += ',';
        out += std::to_string(s);
        first = false;
      }
      out += ']';
    }
    out += '}';
  }
  out += ",\"kernel\":{";
  out += "\"tier\":\"" + std::string(tensor::active_kernel_tier_name());
  out += "\",\"cpu\":\"" + tensor::cpu_features_string() + "\"}";
  out += ",\"process\":{\"peak_rss_kib\":" +
         std::to_string(obs::peak_rss_kib()) + '}';
  out += ",\"metrics\":" + obs::metrics_to_json();
  out += '}';
  return out;
}

std::string statsz_prometheus(const StatszSource& source) {
  std::string out;
  // Each name is exported once. The registry mirrors some Stats fields
  // (e.g. serve.accepted), and the Stats blocks come first.
  std::unordered_set<std::string> emitted;
  const auto emit = [&](const std::string& name, const char* type,
                        double value) {
    if (!emitted.insert(name).second) return;
    out += "# TYPE " + name + ' ' + type + '\n';
    out += name + ' ';
    append_number(out, value);
    out += '\n';
  };

  emit("diagnet_uptime_seconds", "gauge",
       std::chrono::duration<double>(clock::now() - source.start).count());
  emit("diagnet_process_peak_rss_bytes", "gauge",
       1024.0 * static_cast<double>(obs::peak_rss_kib()));
  if (source.service != nullptr) {
    const DiagnosisService::Stats stats = source.service->stats();
    emit("diagnet_serve_queue_depth", "gauge",
         static_cast<double>(source.service->queue_depth()));
    emit("diagnet_serve_in_flight_batches", "gauge",
         static_cast<double>(source.service->in_flight_batches()));
    emit("diagnet_serve_accepted_total", "counter",
         static_cast<double>(stats.accepted));
    emit("diagnet_serve_rejected_total", "counter",
         static_cast<double>(stats.rejected));
    emit("diagnet_serve_shed_total", "counter",
         static_cast<double>(stats.shed));
    emit("diagnet_serve_completed_total", "counter",
         static_cast<double>(stats.completed));
    emit("diagnet_serve_batches_total", "counter",
         static_cast<double>(stats.batches));
  }
  if (source.reactor != nullptr) {
    const ReactorStats r = source.reactor->stats();
    emit("diagnet_reactor_open_connections", "gauge",
         static_cast<double>(r.active));
    emit("diagnet_reactor_buffered_bytes", "gauge",
         static_cast<double>(r.buffered_bytes));
    emit("diagnet_reactor_accepted_total", "counter",
         static_cast<double>(r.accepted));
    emit("diagnet_reactor_closed_total", "counter",
         static_cast<double>(r.closed));
    emit("diagnet_reactor_requests_total", "counter",
         static_cast<double>(r.requests));
    emit("diagnet_reactor_responses_total", "counter",
         static_cast<double>(r.responses));
    emit("diagnet_reactor_idle_timeouts_total", "counter",
         static_cast<double>(r.idle_timeouts));
    emit("diagnet_reactor_backpressure_stalls_total", "counter",
         static_cast<double>(r.backpressure_stalls));
    emit("diagnet_reactor_slow_reader_closes_total", "counter",
         static_cast<double>(r.slow_reader_closes));
    emit("diagnet_reactor_over_capacity_total", "counter",
         static_cast<double>(r.over_capacity));
    emit("diagnet_reactor_oversized_lines_total", "counter",
         static_cast<double>(r.oversized_lines));
    emit("diagnet_reactor_protocol_errors_total", "counter",
         static_cast<double>(r.protocol_errors));
    emit("diagnet_reactor_errors_total", "counter",
         static_cast<double>(r.errors()));
  }
  if (source.provider != nullptr) {
    emit("diagnet_model_generation", "gauge",
         static_cast<double>(source.provider->generation()));
    // The checksum does not fit a float64 exactly; expose it as a label
    // on a constant-1 info metric, the Prometheus idiom for identities.
    out += "# TYPE diagnet_model_info gauge\n";
    out += "diagnet_model_info{checksum=\"" +
           checksum_hex(source.provider->checksum()) + "\"} 1\n";
    const auto model = source.provider->current();
    emit("diagnet_model_specialized_services", "gauge",
         model != nullptr
             ? static_cast<double>(model->specialized_services().size())
             : 0.0);
  }
  // Same info-metric idiom for the dispatched kernel tier: the tier and the
  // probed CPU features ride as labels on a constant 1.
  out += "# TYPE diagnet_kernel_info gauge\n";
  out += "diagnet_kernel_info{tier=\"";
  out += tensor::active_kernel_tier_name();
  out += "\",cpu=\"" + tensor::cpu_features_string() + "\"} 1\n";

  obs::Registry& registry = obs::Registry::instance();
  for (const auto& [name, value] : registry.counters())
    emit(prom_name(name) + "_total", "counter",
         static_cast<double>(value));
  for (const auto& [name, value] : registry.gauges())
    emit(prom_name(name), "gauge", value);
  for (const auto& [name, snapshot] : registry.histograms()) {
    const std::string metric = prom_name(name);
    if (snapshot.count == 0 || !emitted.insert(metric).second) continue;
    out += "# TYPE " + metric + " summary\n";
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      out += metric + "{quantile=\"";
      append_number(out, q);
      out += "\"} ";
      append_number(out, snapshot.percentile(q));
      out += '\n';
    }
    out += metric + "_sum ";
    append_number(out, snapshot.sum);
    out += '\n';
    out += metric + "_count " + std::to_string(snapshot.count) + '\n';
  }
  return out;
}

#if DIAGNET_SERVE_HAS_TCP

namespace {

/// Read until the end of the HTTP request head ("\r\n\r\n") or a small
/// size cap — this is an admin endpoint for GET requests, not a general
/// HTTP server, so anything oversized or slow (>2s) is dropped.
bool read_request_head(int fd, std::string* head) {
  char buf[1024];
  while (head->size() < 8192) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 2000) <= 0) return false;
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) return false;
    head->append(buf, static_cast<std::size_t>(n));
    if (head->find("\r\n\r\n") != std::string::npos ||
        head->find("\n\n") != std::string::npos)
      return true;
  }
  return false;
}

void write_http_response(int fd, const char* status,
                         const char* content_type, const std::string& body) {
  std::string response = "HTTP/1.1 ";
  response += status;
  response += "\r\nContent-Type: ";
  response += content_type;
  response += "\r\nContent-Length: " + std::to_string(body.size());
  response += "\r\nConnection: close\r\n\r\n";
  response += body;
  const char* data = response.data();
  std::size_t left = response.size();
  while (left > 0) {
#if defined(MSG_NOSIGNAL)
    const ssize_t written = ::send(fd, data, left, MSG_NOSIGNAL);
#else
    const ssize_t written = ::write(fd, data, left);
#endif
    if (written <= 0) return;
    data += written;
    left -= static_cast<std::size_t>(written);
  }
}

}  // namespace

util::Status run_admin_listener(const StatszSource& source,
                                std::uint16_t port,
                                const std::atomic<bool>& stop_flag,
                                std::atomic<std::uint16_t>* bound_port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0)
    return util::Status::unavailable("admin: socket() failed");
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 4) != 0) {
    ::close(listener);
    return util::Status::unavailable(
        "admin: cannot listen on 127.0.0.1:" + std::to_string(port));
  }
  socklen_t addr_len = sizeof addr;
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  const std::uint16_t actual = ntohs(addr.sin_port);
  if (bound_port != nullptr) bound_port->store(actual);
  std::fprintf(stderr, "serve: statsz on http://127.0.0.1:%u/statsz\n",
               static_cast<unsigned>(actual));

  while (!stop_flag.load()) {
    pollfd pfd{listener, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0) break;
    if (ready == 0) continue;
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) continue;
    std::string head;
    if (read_request_head(conn, &head)) {
      // "GET <path> ..." — only the method and path matter here.
      std::string path;
      if (head.rfind("GET ", 0) == 0) {
        const std::size_t end = head.find(' ', 4);
        if (end != std::string::npos) path = head.substr(4, end - 4);
      }
      if (path == "/statsz" || path == "/statsz/")
        write_http_response(conn, "200 OK", "application/json",
                            statsz_json(source) + "\n");
      else if (path == "/metrics" || path == "/metrics/")
        write_http_response(conn, "200 OK",
                            "text/plain; version=0.0.4; charset=utf-8",
                            statsz_prometheus(source));
      else
        write_http_response(conn, "404 Not Found", "text/plain",
                            "not found; try /statsz or /metrics\n");
    }
    ::close(conn);
  }
  ::close(listener);
  return {};
}

#else  // !DIAGNET_SERVE_HAS_TCP

util::Status run_admin_listener(const StatszSource&, std::uint16_t,
                                const std::atomic<bool>&,
                                std::atomic<std::uint16_t>*) {
  return util::Status::unavailable(
      "admin listener is not available on this platform");
}

#endif  // DIAGNET_SERVE_HAS_TCP

}  // namespace diagnet::serve
