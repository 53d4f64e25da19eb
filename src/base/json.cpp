#include "src/base/json.h"

#include <algorithm>
#include <charconv>
#include <climits>

#include "src/base/strings.h"

namespace sep {

void AppendJsonEscaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (byte < 0x20) {
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xF];
    } else {
      out += c;
    }
  }
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

constexpr std::string_view kSpace = " \t\n\r";

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Appends code point `cp` (at most 0x10FFFF) as UTF-8.
void AppendUtf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
    return;
  }
  const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  out += static_cast<char>(((0xFF00u >> (tail + 1)) & 0xFF) | (cp >> (6 * tail)));
  for (int i = tail - 1; i >= 0; --i) {
    out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F));
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue doc;
    if (ParseValue(doc, 0)) {
      SkipSpace();
      if (pos_ != text_.size()) Fail("trailing content");
    }
    if (!error_.empty()) return Err(error_);
    return doc;
  }

 private:
  // Records the first error; returns false so callers can `return Fail(..)`.
  bool Fail(const std::string& what) {
    if (error_.empty()) error_ = Format("offset %zu: %s", pos_, what.c_str());
    return false;
  }

  void SkipSpace() {
    while (pos_ < text_.size() && kSpace.find(text_[pos_]) != std::string_view::npos) ++pos_;
  }

  bool Peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool Consume(char c) {
    if (!Peek(c)) return false;
    ++pos_;
    return true;
  }

  bool Expect(char c) {
    SkipSpace();
    return Consume(c) || Fail(Format("expected '%c'", c));
  }

  bool ParseValue(JsonValue& out, int depth) {
    SkipSpace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[':
        if (depth >= kMaxJsonDepth) return Fail(Format("nesting deeper than %d", kMaxJsonDepth));
        return Peek('{') ? ParseObject(out, depth + 1) : ParseArray(out, depth + 1);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return ParseString(out.str);
      case 't':
        out.boolean = true;
        return ParseLiteral("true", out, JsonValue::Kind::kBool);
      case 'f':
        return ParseLiteral("false", out, JsonValue::Kind::kBool);
      case 'n':
        return ParseLiteral("null", out, JsonValue::Kind::kNull);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out.kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (!Peek('}')) {
      do {
        SkipSpace();
        if (!Peek('"')) return Fail("expected a string key");
        std::string key;
        JsonValue value;
        if (!ParseString(key) || !Expect(':') || !ParseValue(value, depth)) return false;
        out.members.emplace_back(std::move(key), std::move(value));
        SkipSpace();
      } while (Consume(','));
    }
    if (!Expect('}')) return false;
    // Duplicate keys, found by sorting: a scan per key would be quadratic in
    // a hostile object's size.
    std::vector<std::string_view> keys;
    keys.reserve(out.members.size());
    for (const auto& member : out.members) keys.push_back(member.first);
    std::sort(keys.begin(), keys.end());
    const auto dup = std::adjacent_find(keys.begin(), keys.end());
    if (dup != keys.end()) return Fail("duplicate key \"" + std::string(*dup) + "\"");
    return true;
  }

  bool ParseArray(JsonValue& out, int depth) {
    ++pos_;  // '['
    out.kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (!Peek(']')) {
      do {
        out.items.emplace_back();
        if (!ParseValue(out.items.back(), depth)) return false;
        SkipSpace();
      } while (Consume(','));
    }
    return Expect(']');
  }

  bool ParseLiteral(std::string_view word, JsonValue& out, JsonValue::Kind kind) {
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("bad literal, expected " + std::string(word));
    }
    pos_ += word.size();
    out.kind = kind;
    return true;
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool ParseNumber(JsonValue& out) {
    std::size_t end = pos_;
    const auto skip = [&](std::string_view chars) {
      if (end < text_.size() && chars.find(text_[end]) != std::string_view::npos) ++end;
    };
    const auto digits = [&] {
      const std::size_t from = end;
      while (end < text_.size() && IsDigit(text_[end])) ++end;
      return end > from;
    };
    if (text_[pos_] != '-' && !IsDigit(text_[pos_])) return Fail("unexpected character");
    skip("-");
    const std::size_t int_start = end;
    if (!digits() || (text_[int_start] == '0' && end - int_start > 1)) return Fail("bad number");
    bool integral = true;
    if (end < text_.size() && text_[end] == '.') {
      ++end;
      integral = false;
      if (!digits()) return Fail("bad number");
    }
    if (end < text_.size() && (text_[end] == 'e' || text_[end] == 'E')) {
      ++end;
      integral = false;
      skip("+-");
      if (!digits()) return Fail("bad number");
    }
    const std::string_view token = text_.substr(pos_, end - pos_);
    if (integral) {
      const std::optional<long long> value = ParseInt(token, LLONG_MIN, LLONG_MAX);
      if (!value.has_value()) return Fail("number out of range");
      out.kind = JsonValue::Kind::kInt;
      out.integer = *value;
    } else {
      const std::optional<double> value = ParseDouble(token);
      if (!value.has_value()) return Fail("number out of range");
      out.kind = JsonValue::Kind::kDouble;
      out.real = *value;
    }
    pos_ = end;
    return true;
  }

  // The four hex digits of a `\u` escape; -1 if malformed.
  int Hex4() {
    unsigned value = 0;
    const char* begin = text_.data() + pos_;
    if (text_.size() - pos_ < 4 || std::from_chars(begin, begin + 4, value, 16).ptr != begin + 4) {
      return -1;
    }
    pos_ += 4;
    return static_cast<int>(value);
  }

  // After a `\u`: decodes one code point, pairing surrogates.
  bool ParseUnicodeEscape(std::string& out) {
    unsigned cp = static_cast<unsigned>(Hex4());
    if (cp > 0xFFFF) return Fail("bad \\u escape");
    if (cp >= 0xD800 && cp <= 0xDBFF && text_.substr(pos_, 2) == "\\u") {
      pos_ += 2;
      const unsigned low = static_cast<unsigned>(Hex4());
      if (low >= 0xDC00 && low <= 0xDFFF) cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    if (cp >= 0xD800 && cp <= 0xDFFF) return Fail("unpaired surrogate");
    AppendUtf8(out, cp);
    return true;
  }

  bool ParseString(std::string& out) {
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return Fail("raw control byte in string");
      ++pos_;
      if (c != '\\') {
        out += c;
      } else if (Consume('u')) {
        if (!ParseUnicodeEscape(out)) return false;
      } else if (pos_ < text_.size() && kEscapes.find(text_[pos_]) != std::string_view::npos) {
        out += kDecoded[kEscapes.find(text_[pos_++])];
      } else {
        return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) { return Parser(text).Parse(); }

}  // namespace sep
