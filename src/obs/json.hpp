// Minimal JSON value model, parser, and writer.
//
// The observability layer serializes its StatsRegistry to JSON, and the test
// suite (plus downstream tooling reading BENCH_*.json / --stats output) needs
// to parse that output back without an external dependency. This is a
// deliberately small, strict subset implementation: UTF-8 pass-through,
// doubles for every number, objects preserve insertion order. It is not a
// general-purpose JSON library — inputs it rejects are malformed per RFC
// 8259, but it makes no attempt at lenient recovery.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace csrlmrm::obs {

/// Deepest array/object nesting parse_json accepts. The parser recurses once
/// per level, so this cap is what keeps a hostile input such as a 200 KB line
/// of `[` (one NDJSON request to mrmcheckd) from overflowing the stack; every
/// document the tools and the wire protocol exchange nests a few levels.
inline constexpr std::size_t kMaxJsonDepth = 512;

/// Raised by parse_json on malformed input; carries the byte offset.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& message, std::size_t offset)
      : std::runtime_error(message + " (at byte " + std::to_string(offset) + ")"),
        offset_(offset) {}
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_ = 0;
};

/// One JSON value. Objects keep their members in document order (the stats
/// schema is order-insensitive, but round-trip tests compare structures).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;  // null
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(double n) : kind_(Kind::kNumber), number_(n) {}
  explicit JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static JsonValue array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  /// Typed accessors; throw std::logic_error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& items() const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member by key; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
  /// Object member by key; throws std::out_of_range when absent.
  const JsonValue& at(std::string_view key) const;

  /// Mutators used by writers/tests.
  void push_back(JsonValue value);
  void set(std::string key, JsonValue value);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected). Throws JsonParseError on malformed input, including at the
/// bracket that opens a level deeper than kMaxJsonDepth.
JsonValue parse_json(std::string_view text);

/// Serializes with 2-space indentation and keys in stored order. Numbers use
/// shortest round-trip formatting; non-finite numbers are emitted as null
/// (JSON has no representation for them).
std::string write_json(const JsonValue& value);

/// Serializes without any whitespace — one line, suitable for
/// newline-delimited JSON framing (the mrmcheckd wire protocol). Numbers use
/// the same shortest round-trip formatting as write_json, so doubles survive
/// a serialize/parse round trip bitwise.
std::string write_json_compact(const JsonValue& value);

/// Escapes one string for embedding in JSON output (quotes not included).
std::string json_escape(std::string_view text);

}  // namespace csrlmrm::obs
