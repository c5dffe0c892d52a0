#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sg::obs {

/// Minimal dependency-free JSON support for the observability layer:
/// a streaming writer with deterministic number formatting (trace and
/// report files are golden-file tested, so identical inputs must give
/// byte-identical output) and a small recursive-descent parser for
/// `report_diff` and the tests. Not a general-purpose JSON library.
class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double d);
  JsonWriter& value(std::uint64_t u);
  JsonWriter& value(std::int64_t i);
  JsonWriter& value(std::uint32_t u) {
    return value(static_cast<std::uint64_t>(u));
  }
  JsonWriter& value(int i) { return value(static_cast<std::int64_t>(i)); }
  JsonWriter& value(bool b);
  JsonWriter& null();

  template <typename T>
  JsonWriter& kv(std::string_view k, T v) {
    key(k);
    return value(v);
  }

  /// Serialized document so far. Well-formed once every container
  /// opened has been closed.
  [[nodiscard]] const std::string& str() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  void separate();
  void escape(std::string_view s);

  std::string out_;
  std::vector<char> stack_;  // '{' or '[' per open container
  std::vector<bool> first_;  // next element is the container's first
  bool pending_key_ = false;
};

/// Shortest round-trip decimal representation of `d` (std::to_chars),
/// the formatting every obs serializer uses.
[[nodiscard]] std::string format_double(double d);

/// Parsed JSON tree. Objects use std::map, so iteration order is
/// name-sorted rather than document order — fine for diffing/tests.
struct JsonValue {
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject
  };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  /// Looks up a dotted path ("stats.comm.total_volume_bytes") through
  /// nested objects; nullptr when any component is missing.
  [[nodiscard]] const JsonValue* find(std::string_view dotted_path) const;

  [[nodiscard]] double num_or(double dflt) const {
    return kind == Kind::kNumber ? number : dflt;
  }
  [[nodiscard]] const std::string& str_or(const std::string& dflt) const {
    return kind == Kind::kString ? string : dflt;
  }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
};

/// Deepest array/object nesting parse_json accepts. The parser recurses
/// once per level, so the bound keeps a hostile document (a file of
/// '[') from overflowing the stack; the documents obs writes nest at
/// most 7 levels.
inline constexpr int kJsonMaxDepth = 256;

/// Parses a complete JSON document; throws std::runtime_error with an
/// offset-annotated message on malformed input, including nesting
/// deeper than kJsonMaxDepth.
[[nodiscard]] JsonValue parse_json(std::string_view text);

}  // namespace sg::obs
