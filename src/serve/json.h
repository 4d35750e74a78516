// Minimal JSON value model + recursive-descent parser for the serving
// wire protocol (line-delimited JSON requests/responses). Deliberately
// small: objects, arrays, strings, numbers (as double), booleans, null —
// no streaming, no comments, no \uXXXX beyond Latin-1 passthrough. The
// telemetry JSON *writers* in src/obs are unrelated (write-only); this is
// the repo's only JSON *reader*, and it exists solely so `diagnet serve`
// needs no external dependency.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace diagnet::serve {

class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() = default;  // null
  static JsonValue boolean(bool b);
  static JsonValue number(double d);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();

  Kind kind() const { return kind_; }

  /// Typed accessors: programming error (DIAGNET_REQUIRE) on wrong kind —
  /// wire-level validation goes through the get_* helpers below.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;
  const std::map<std::string, JsonValue>& members() const;

  std::vector<JsonValue>& items();
  std::map<std::string, JsonValue>& members();

  /// Object field lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::map<std::string, JsonValue> members_;
};

/// Parse one complete JSON document; trailing non-space input is an
/// invalid_argument error (a line must be exactly one value).
util::StatusOr<JsonValue> parse_json(const std::string& text);

}  // namespace diagnet::serve
