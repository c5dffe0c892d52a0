#include "obs/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace sg::obs {

// ---- writer --------------------------------------------------------------

std::string format_double(double d) {
  std::array<char, 40> buf;
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), d);
  return std::string(buf.data(), res.ptr);
}

void JsonWriter::separate() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

void JsonWriter::escape(std::string_view s) {
  out_ += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof hex, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out_ += hex;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::begin_object() {
  separate();
  out_ += '{';
  stack_.push_back('{');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  stack_.pop_back();
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  separate();
  out_ += '[';
  stack_.push_back('[');
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  stack_.pop_back();
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  separate();
  escape(k);
  out_ += ':';
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  separate();
  escape(s);
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  separate();
  out_ += format_double(d);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t u) {
  separate();
  std::array<char, 24> buf;
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), u);
  out_.append(buf.data(), res.ptr);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t i) {
  separate();
  std::array<char, 24> buf;
  const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), i);
  out_.append(buf.data(), res.ptr);
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  separate();
  out_ += b ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  separate();
  out_ += "null";
  return *this;
}

// ---- parser --------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
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

  /// Counts one array/object level for the scope of a parse call;
  /// fails past kJsonMaxDepth.
  struct Nest {
    explicit Nest(Parser& parser) : p(parser) {
      if (++p.depth_ > kJsonMaxDepth) {
        p.fail("nesting deeper than " + std::to_string(kJsonMaxDepth) +
               " levels");
      }
    }
    ~Nest() { --p.depth_; }
    Parser& p;
  };

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail("bad literal");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail("bad literal");
        JsonValue v;
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      }
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("short \\u escape");
            unsigned code = 0;
            const auto res = std::from_chars(
                text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
            if (res.ptr != text_.data() + pos_ + 4) fail("bad \\u escape");
            pos_ += 4;
            // Only BMP code points; encode as UTF-8 (obs emits ASCII, so
            // this path exists for completeness).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double d = 0.0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, d);
    if (res.ec != std::errc{} || res.ptr != text_.data() + pos_ ||
        start == pos_) {
      pos_ = start;
      fail("malformed number");
    }
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = d;
    return v;
  }

  JsonValue parse_object() {
    const Nest nest(*this);
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string k = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace(std::move(k), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      break;
    }
    return v;
  }

  JsonValue parse_array() {
    const Nest nest(*this);
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      break;
    }
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view dotted_path) const {
  const JsonValue* cur = this;
  while (!dotted_path.empty()) {
    if (cur->kind != Kind::kObject) return nullptr;
    const std::size_t dot = dotted_path.find('.');
    const std::string component(dotted_path.substr(0, dot));
    const auto it = cur->object.find(component);
    if (it == cur->object.end()) return nullptr;
    cur = &it->second;
    if (dot == std::string_view::npos) break;
    dotted_path.remove_prefix(dot + 1);
  }
  return cur;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

// ---- typed reader --------------------------------------------------------

namespace {

/// JsonValue::Kind's names, in enumerator order.
constexpr const char* kKindNames[] = {"null",   "boolean", "number",
                                      "string", "array",   "object"};

/// Dotted path of the first member of `obj` (under `prefix`) that is
/// not in `read`, nor an object holding only read members; empty when
/// there is none.
std::string first_unread(const JsonValue& obj, const std::string& prefix,
                         const std::set<std::string, std::less<>>& read) {
  for (const auto& [name, value] : obj.object) {
    const std::string path = prefix + name;
    if (read.contains(path)) continue;
    const std::string inner = path + ".";
    const auto it = read.lower_bound(inner);
    if (!value.is_object() || it == read.end() || !it->starts_with(inner)) {
      return path;
    }
    if (std::string deeper = first_unread(value, inner, read);
        !deeper.empty()) {
      return deeper;
    }
  }
  return {};
}

}  // namespace

JsonReader::JsonReader(const JsonValue& doc, std::string context)
    : doc_(doc), context_(std::move(context)) {
  if (!doc.is_object()) {
    throw std::runtime_error(context_ + ": not a JSON object");
  }
}

void JsonReader::fail(std::string_view problem, std::string_view key,
                      const std::string& detail) const {
  throw std::runtime_error(context_ + ": " + std::string(problem) + " \"" +
                           std::string(key) + "\"" + detail);
}

const JsonValue* JsonReader::get(std::string_view key, JsonValue::Kind kind,
                                 bool required) {
  read_.emplace(key);
  const JsonValue* v = doc_.find(key);
  if (v == nullptr && required) fail("missing", key);
  if (v != nullptr && v->kind != kind) {
    fail("mistyped", key,
         std::string(" (want a ") + kKindNames[static_cast<int>(kind)] + ")");
  }
  return v;
}

double JsonReader::number(std::string_view key, std::optional<double> dflt) {
  const JsonValue* v = get(key, JsonValue::Kind::kNumber, !dflt);
  return v != nullptr ? v->number : *dflt;
}

bool JsonReader::boolean(std::string_view key, std::optional<bool> dflt) {
  const JsonValue* v = get(key, JsonValue::Kind::kBool, !dflt);
  return v != nullptr ? v->boolean : *dflt;
}

std::string JsonReader::string(std::string_view key,
                               std::optional<std::string> dflt) {
  const JsonValue* v = get(key, JsonValue::Kind::kString, !dflt);
  return v != nullptr ? v->string : *std::move(dflt);
}

void JsonReader::known(std::initializer_list<std::string_view> keys) {
  for (const std::string_view k : keys) read_.emplace(k);
}

void JsonReader::reject_unread() const {
  if (const std::string key = first_unread(doc_, "", read_); !key.empty()) {
    fail("unknown member", key);
  }
}

}  // namespace sg::obs
