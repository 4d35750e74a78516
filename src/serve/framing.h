// Incremental line framing for the epoll reactor: bytes arrive in
// arbitrary chunks (whatever one read() returned), complete lines come
// out. The contract matches what std::getline gives the stdio session
// (run_session) — lines are split on '\n' only, the terminator is not part
// of the line, '\r' and NUL bytes pass through untouched — so a client
// sees byte-identical framing over TCP and over stdio.
//
// Unlike getline, the framer enforces a maximum line length: a client
// that streams forever without a newline would otherwise grow the read
// buffer without bound (at C1M connection counts that is a trivial memory
// DoS). Crossing the limit makes the framer sticky-overflowed; the owner
// is expected to answer with one error line and close the connection.
//
// Amortised O(1) per byte: the newline scan never revisits bytes
// (`scanned_` high-water mark) and consumed prefixes are compacted only
// once they dominate the buffer.
#pragma once

#include <cstddef>
#include <string>

namespace diagnet::serve {

class LineFramer {
 public:
  explicit LineFramer(std::size_t max_line_bytes = kDefaultMaxLineBytes)
      : max_line_bytes_(max_line_bytes) {}

  /// Append one chunk of raw transport bytes. No-op once overflowed.
  void feed(const char* data, std::size_t n);
  void feed(const std::string& bytes) { feed(bytes.data(), bytes.size()); }

  /// Pop the next complete line (terminator stripped) into *line.
  /// Returns false when no complete line is buffered (or after overflow).
  /// Empty lines are surfaced too — the session layer skips them, exactly
  /// as the getline loop did.
  bool next(std::string* line);

  /// Sticky: true once a line exceeded max_line_bytes. Complete lines
  /// framed before the oversized one remain poppable via next(); the
  /// partial oversized tail is discarded and further feeds are ignored.
  bool overflowed() const { return overflowed_; }

  /// Bytes buffered but not yet returned as lines.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

  std::size_t max_line_bytes() const { return max_line_bytes_; }

  static constexpr std::size_t kDefaultMaxLineBytes = 1u << 20;

 private:
  std::size_t max_line_bytes_;
  std::string buffer_;
  std::size_t consumed_ = 0;    // prefix already returned as lines
  std::size_t scanned_ = 0;     // newline-scan high-water mark
  std::size_t tail_start_ = 0;  // first byte after the last '\n' seen
  bool overflowed_ = false;
};

}  // namespace diagnet::serve
