#include "trace.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope Tracer::span(const char* name, std::uint64_t op) {
  if (!enabled_) return Scope(nullptr, -1);
  Span s;
  s.name = name;
  s.parent = open_;
  s.op = op;
  s.start_us = now_us();
  spans_.push_back(std::move(s));
  open_ = static_cast<int>(spans_.size()) - 1;
  return Scope(this, open_);
}

void Tracer::close(int index) {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_us = now_us();
  open_ = s.parent;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  // Children never overlap each other (one recording thread), so the time
  // they cover inside their parent is the sum of their durations.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    const double duration = s.end_us - s.start_us;
    t.total_us += duration;
    t.self_us += duration - child_us[i];
    t.count += 1;
    if (child_us[i] > 0.0) t.has_children = true;
  }
  return out;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

}  // namespace

bool Tracer::write_chrome(const std::string& path) const {
  std::string json = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) json += ',';
    json += "{\"name\":\"";
    append_escaped(json, s.name);
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"op\":%llu,\"parent\":\"",
                  s.start_us, s.end_us - s.start_us,
                  static_cast<unsigned long long>(s.op));
    json += buf;
    if (s.parent >= 0)
      append_escaped(json, spans_[static_cast<std::size_t>(s.parent)].name);
    json += "\"}}";
  }
  json += "]}\n";
  std::ofstream out(path, std::ios::trunc);
  out << json;
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
