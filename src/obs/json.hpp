#pragma once

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace sg::obs {

/// Minimal dependency-free JSON support for the observability layer:
/// a streaming writer with deterministic number formatting (trace and
/// report files are golden-file tested, so identical inputs must give
/// byte-identical output), a small recursive-descent parser, and one
/// typed reader for every document the tools read back. Not a
/// general-purpose JSON library.
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

/// Typed reads of the members of one parsed JSON object, shared by every
/// reader of a document this library writes: fault plans, sg_chaos
/// reproducers, Chrome traces, run reports and flight dumps. A key may
/// be a dotted path into nested objects ("scenario.devices"). A member
/// that is absent and has a default reads as the default; otherwise a
/// read throws std::runtime_error naming the context and the key when
/// the member is missing, has another JSON type, or is an integer that
/// is fractional or outside its range. The range is checked before the
/// cast, because casting an out-of-range double is undefined.
class JsonReader {
 public:
  /// Throws unless `doc` is an object. `context` starts every error
  /// message ("fault plan: event 3"); `doc` must outlive the reader.
  JsonReader(const JsonValue& doc, std::string context);

  /// Member `key` when it has JSON type `kind`; nullptr when it is
  /// absent and not `required`.
  [[nodiscard]] const JsonValue* get(std::string_view key,
                                     JsonValue::Kind kind, bool required);
  [[nodiscard]] double number(std::string_view key,
                              std::optional<double> dflt = std::nullopt);
  [[nodiscard]] bool boolean(std::string_view key,
                             std::optional<bool> dflt = std::nullopt);
  [[nodiscard]] std::string string(
      std::string_view key, std::optional<std::string> dflt = std::nullopt);

  /// Integer member in [lo, hi], by default the whole range of T.
  template <typename T>
  [[nodiscard]] T integer(std::string_view key,
                          std::optional<T> dflt = std::nullopt,
                          T lo = std::numeric_limits<T>::min(),
                          T hi = std::numeric_limits<T>::max()) {
    const JsonValue* v = get(key, JsonValue::Kind::kNumber, !dflt);
    if (v == nullptr) return *dflt;
    // 2^digits, the first value past T, is exact as a double; a 64-bit
    // maximum is not (it rounds up to 2^digits).
    const double x = v->number;
    if (!(x >= static_cast<double>(lo) && x <= static_cast<double>(hi) &&
          x < std::ldexp(1.0, std::numeric_limits<T>::digits)) ||
        x != std::floor(x)) {
      fail("non-integer or out-of-range", key,
           " (want an integer in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "])");
    }
    return static_cast<T>(x);
  }

  /// Counts `keys` as read: members written for a person, not read back.
  void known(std::initializer_list<std::string_view> keys);

  /// Throws naming a member that no read reached. For documents that
  /// only this library writes and reads in full, so that a misspelled
  /// key is an error instead of a silently applied default.
  void reject_unread() const;

  /// Throws `<context>: <problem> "<key>"<detail>`, the form of every
  /// error the reader raises, for checks its callers add.
  [[noreturn]] void fail(std::string_view problem, std::string_view key,
                         const std::string& detail = {}) const;

 private:
  const JsonValue& doc_;
  std::string context_;
  std::set<std::string, std::less<>> read_;  // keys asked for, dotted
};

}  // namespace sg::obs
