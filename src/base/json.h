// The repository's one JSON string escaper and one JSON reader.
//
// Writers keep their own format strings (those strings are the pinned
// formats of the finding lines, the obligation ledger and the BENCH files);
// only string values go through AppendJsonEscaped. The reader serves the
// tools that consume JSON: check_obligations (the ledger, the schema's
// "$id") and bench_report (google-benchmark output, --compare baselines).
// Both tools read files from outside the program, so ParseJson never throws
// and never recurses without a bound: malformed text, out-of-range numbers
// and nesting deeper than kMaxJsonDepth are all parse errors.
#ifndef SRC_BASE_JSON_H_
#define SRC_BASE_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/result.h"

namespace sep {

// Appends `text` to `out` as the body of a JSON string (no quotes): `"` and
// `\` are backslash-escaped, `\n` and `\t` keep their short forms, and every
// other byte below 0x20 becomes `\u00XX`. All other bytes pass through.
void AppendJsonEscaped(std::string& out, std::string_view text);

struct JsonValue {
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  long long integer = 0;  // kInt
  double real = 0;        // kDouble
  std::string str;
  std::vector<JsonValue> items;
  // Object members in document order; keys are unique.
  std::vector<std::pair<std::string, JsonValue>> members;

  bool IsNumber() const { return kind == Kind::kInt || kind == Kind::kDouble; }
  // The value of a number of either kind; 0 for anything else.
  double AsDouble() const { return kind == Kind::kInt ? static_cast<double>(integer) : real; }
  // The member named `key` of an object; nullptr if absent or not an object.
  const JsonValue* Find(std::string_view key) const;
};

// Arrays and objects nested deeper than this are a parse error (the
// obligation ledger needs 5 levels, google-benchmark output 3).
inline constexpr int kMaxJsonDepth = 64;

// Parses one JSON document (RFC 8259). Rejects duplicate object keys,
// trailing content, raw control bytes in strings, bad escapes and unpaired
// surrogates; decodes `\uXXXX` to UTF-8. Integers must fit a long long and
// other numbers a finite double. The error reads "offset N: what".
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace sep

#endif  // SRC_BASE_JSON_H_
