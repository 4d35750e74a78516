#include "serve/json.h"

#include <cctype>
#include <cstdlib>

#include "util/require.h"

namespace diagnet::serve {

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}
JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::Number;
  v.number_ = d;
  return v;
}
JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::String;
  v.string_ = std::move(s);
  return v;
}
JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::Array;
  return v;
}
JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::Object;
  return v;
}

bool JsonValue::as_bool() const {
  DIAGNET_REQUIRE(kind_ == Kind::Bool);
  return bool_;
}
double JsonValue::as_number() const {
  DIAGNET_REQUIRE(kind_ == Kind::Number);
  return number_;
}
const std::string& JsonValue::as_string() const {
  DIAGNET_REQUIRE(kind_ == Kind::String);
  return string_;
}
const std::vector<JsonValue>& JsonValue::items() const {
  DIAGNET_REQUIRE(kind_ == Kind::Array);
  return items_;
}
const std::map<std::string, JsonValue>& JsonValue::members() const {
  DIAGNET_REQUIRE(kind_ == Kind::Object);
  return members_;
}
std::vector<JsonValue>& JsonValue::items() {
  DIAGNET_REQUIRE(kind_ == Kind::Array);
  return items_;
}
std::map<std::string, JsonValue>& JsonValue::members() {
  DIAGNET_REQUIRE(kind_ == Kind::Object);
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  const auto it = members_.find(key);
  return it == members_.end() ? nullptr : &it->second;
}

namespace {

using util::Status;

/// Recursive-descent parser over a string view with a depth cap (hostile
/// input on a network-facing transport must not overflow the stack).
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  util::StatusOr<JsonValue> parse() {
    JsonValue value;
    if (Status s = parse_value(&value, 0); !s.ok()) return s;
    skip_ws();
    if (pos_ != text_.size())
      return error("trailing characters after JSON value");
    return value;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  Status error(const std::string& what) const {
    return Status::invalid_argument("json: " + what + " at offset " +
                                    std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(const char* word) {
    std::size_t n = 0;
    while (word[n] != '\0') ++n;
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  Status parse_value(JsonValue* out, std::size_t depth) {
    if (depth > kMaxDepth) return error("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(out, depth);
    if (c == '[') return parse_array(out, depth);
    if (c == '"') return parse_string(out);
    if (c == 't' || c == 'f') {
      if (consume_word("true")) {
        *out = JsonValue::boolean(true);
        return {};
      }
      if (consume_word("false")) {
        *out = JsonValue::boolean(false);
        return {};
      }
      return error("unexpected token");
    }
    if (c == 'n') {
      if (consume_word("null")) {
        *out = JsonValue();
        return {};
      }
      return error("unexpected token");
    }
    return parse_number(out);
  }

  Status parse_object(JsonValue* out, std::size_t depth) {
    consume('{');
    *out = JsonValue::object();
    skip_ws();
    if (consume('}')) return {};
    while (true) {
      skip_ws();
      JsonValue key;
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return error("expected object key string");
      if (Status s = parse_string(&key); !s.ok()) return s;
      skip_ws();
      if (!consume(':')) return error("expected ':'");
      JsonValue value;
      if (Status s = parse_value(&value, depth + 1); !s.ok()) return s;
      out->members()[key.as_string()] = std::move(value);
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return {};
      return error("expected ',' or '}'");
    }
  }

  Status parse_array(JsonValue* out, std::size_t depth) {
    consume('[');
    *out = JsonValue::array();
    skip_ws();
    if (consume(']')) return {};
    while (true) {
      JsonValue value;
      if (Status s = parse_value(&value, depth + 1); !s.ok()) return s;
      out->items().push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return {};
      return error("expected ',' or ']'");
    }
  }

  Status parse_string(JsonValue* out) {
    consume('"');
    std::string s;
    while (true) {
      if (pos_ >= text_.size()) return error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20)
        return error("control character in string");
      if (c != '\\') {
        s += c;
        continue;
      }
      if (pos_ >= text_.size()) return error("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': s += '"'; break;
        case '\\': s += '\\'; break;
        case '/': s += '/'; break;
        case 'b': s += '\b'; break;
        case 'f': s += '\f'; break;
        case 'n': s += '\n'; break;
        case 'r': s += '\r'; break;
        case 't': s += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return error("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return error("bad \\u escape");
          }
          // UTF-8 encode the code point (BMP only; surrogate pairs are
          // rejected — metric names and error texts never need them).
          if (code >= 0xD800 && code <= 0xDFFF)
            return error("surrogate \\u escapes unsupported");
          if (code < 0x80) {
            s += static_cast<char>(code);
          } else if (code < 0x800) {
            s += static_cast<char>(0xC0 | (code >> 6));
            s += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            s += static_cast<char>(0xE0 | (code >> 12));
            s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return error("bad escape character");
      }
    }
    *out = JsonValue::string(std::move(s));
    return {};
  }

  Status parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return error("unexpected token");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size())
      return error("malformed number '" + token + "'");
    *out = JsonValue::number(value);
    return {};
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

util::StatusOr<JsonValue> parse_json(const std::string& text) {
  return Parser(text).parse();
}

}  // namespace diagnet::serve
