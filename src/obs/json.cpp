#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace csrlmrm::obs {

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw std::logic_error("JsonValue: not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (kind_ != Kind::kNumber) throw std::logic_error("JsonValue: not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw std::logic_error("JsonValue: not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::kArray) throw std::logic_error("JsonValue: not an array");
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  if (kind_ != Kind::kObject) throw std::logic_error("JsonValue: not an object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* value = find(key);
  if (value == nullptr) throw std::out_of_range("JsonValue: no member '" + std::string(key) + "'");
  return *value;
}

void JsonValue::push_back(JsonValue value) {
  if (kind_ != Kind::kArray) throw std::logic_error("JsonValue: not an array");
  array_.push_back(std::move(value));
}

void JsonValue::set(std::string key, JsonValue value) {
  if (kind_ != Kind::kObject) throw std::logic_error("JsonValue: not an object");
  for (auto& [name, existing] : object_) {
    if (name == key) {
      existing = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing garbage after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError(message, pos_);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_whitespace();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return JsonValue(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return JsonValue(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue();
      default:
        return parse_number();
    }
  }

  /// Enters one array/object level for the lifetime of the guard.
  class DepthGuard {
   public:
    explicit DepthGuard(Parser& parser) : parser_(parser) {
      if (++parser_.depth_ > kMaxJsonDepth) {
        parser_.fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
      }
    }
    ~DepthGuard() { --parser_.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    Parser& parser_;
  };

  JsonValue parse_object() {
    const DepthGuard guard(*this);
    expect('{');
    JsonValue object = JsonValue::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object.set(std::move(key), parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == '}') return object;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    const DepthGuard guard(*this);
    expect('[');
    JsonValue array = JsonValue::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    for (;;) {
      array.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      ++pos_;
      if (c == ']') return array;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not needed
          // by the stats schema; lone surrogates encode as-is).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || end != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("malformed number");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open arrays/objects around pos_
};

void write_value(const JsonValue& value, std::string& out, int depth) {
  const auto indent = [&](int d) { out.append(static_cast<std::size_t>(d) * 2, ' '); };
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      out += "null";
      return;
    case JsonValue::Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber: {
      const double n = value.as_number();
      if (!std::isfinite(n)) {
        out += "null";
        return;
      }
      // Integers (the common case: counters, call counts) print in fixed
      // notation without a fraction; everything else in the shortest form
      // that parses back to the same double.
      char buffer[32];
      const bool integral = n == std::floor(n) && std::abs(n) < 9.007199254740992e15;
      const auto written = integral ? std::to_chars(buffer, buffer + sizeof(buffer), n,
                                                    std::chars_format::fixed)
                                    : std::to_chars(buffer, buffer + sizeof(buffer), n);
      out.append(buffer, written.ptr);
      return;
    }
    case JsonValue::Kind::kString:
      out += '"';
      out += json_escape(value.as_string());
      out += '"';
      return;
    case JsonValue::Kind::kArray: {
      const auto& items = value.items();
      if (items.empty()) {
        out += "[]";
        return;
      }
      out += "[\n";
      for (std::size_t i = 0; i < items.size(); ++i) {
        indent(depth + 1);
        write_value(items[i], out, depth + 1);
        out += (i + 1 == items.size()) ? "\n" : ",\n";
      }
      indent(depth);
      out += ']';
      return;
    }
    case JsonValue::Kind::kObject: {
      const auto& members = value.members();
      if (members.empty()) {
        out += "{}";
        return;
      }
      out += "{\n";
      for (std::size_t i = 0; i < members.size(); ++i) {
        indent(depth + 1);
        out += '"';
        out += json_escape(members[i].first);
        out += "\": ";
        write_value(members[i].second, out, depth + 1);
        out += (i + 1 == members.size()) ? "\n" : ",\n";
      }
      indent(depth);
      out += '}';
      return;
    }
  }
}

/// Whitespace-free form for newline-delimited framing. Scalars delegate to
/// write_value (which emits no indentation for them), so the two writers
/// format numbers identically.
void write_value_compact(const JsonValue& value, std::string& out) {
  switch (value.kind()) {
    case JsonValue::Kind::kArray: {
      const auto& items = value.items();
      out += '[';
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += ',';
        write_value_compact(items[i], out);
      }
      out += ']';
      return;
    }
    case JsonValue::Kind::kObject: {
      const auto& members = value.members();
      out += '{';
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out += ',';
        out += '"';
        out += json_escape(members[i].first);
        out += "\":";
        write_value_compact(members[i].second, out);
      }
      out += '}';
      return;
    }
    default:
      write_value(value, out, 0);
      return;
  }
}

}  // namespace

JsonValue parse_json(std::string_view text) { return Parser(text).parse_document(); }

std::string write_json(const JsonValue& value) {
  std::string out;
  write_value(value, out, 0);
  out += '\n';
  return out;
}

std::string write_json_compact(const JsonValue& value) {
  std::string out;
  write_value_compact(value, out);
  return out;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace csrlmrm::obs
