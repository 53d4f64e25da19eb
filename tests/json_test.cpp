// The shared JSON escaper and reader (src/base/json.h), and the writers that
// use the escaper: every string a finding or an obligation carries must come
// back byte for byte through a strict reader.
#include <gtest/gtest.h>

#include <string>

#include "src/analysis/finding.h"
#include "src/base/json.h"
#include "src/sepcheck/obligations.h"

namespace sep {
namespace {

std::string Escaped(std::string_view text) {
  std::string out;
  AppendJsonEscaped(out, text);
  return out;
}

// Parses `text` and expects an error mentioning `what`.
void ExpectParseError(std::string_view text, const std::string& what) {
  const Result<JsonValue> doc = ParseJson(text);
  ASSERT_FALSE(doc.ok()) << "accepted: " << text.substr(0, 60);
  EXPECT_NE(doc.error().find(what), std::string::npos) << doc.error();
}

TEST(JsonEscape, ShortFormsAndControlBytes) {
  EXPECT_EQ(Escaped("plain text"), "plain text");
  EXPECT_EQ(Escaped("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(Escaped("x\ny\tz"), "x\\ny\\tz");
  EXPECT_EQ(Escaped(std::string_view("\x00\x01\x1f\r", 4)), "\\u0000\\u0001\\u001f\\u000d");
  EXPECT_EQ(Escaped("\x7f\xc3\xa9"), "\x7f\xc3\xa9");  // DEL and UTF-8 pass through
  std::string out = "keep:";
  AppendJsonEscaped(out, "\x02");
  EXPECT_EQ(out, "keep:\\u0002");  // appends in place
}

TEST(JsonEscape, EveryByteRoundTrips) {
  std::string all;
  for (int b = 0; b < 256; ++b) all += static_cast<char>(b);
  const Result<JsonValue> doc = ParseJson("\"" + Escaped(all) + "\"");
  ASSERT_TRUE(doc.ok()) << doc.error();
  EXPECT_EQ(doc->str, all);
}

TEST(JsonReader, BuildsTheTree) {
  const Result<JsonValue> doc = ParseJson(
      " {\"s\": \"hi\", \"i\": -42, \"d\": 2.5e3, \"t\": true, \"f\": false,"
      " \"n\": null, \"a\": [1, [], {}], \"o\": {\"k\": \"v\"}} \n");
  ASSERT_TRUE(doc.ok()) << doc.error();
  ASSERT_EQ(doc->kind, JsonValue::Kind::kObject);
  ASSERT_EQ(doc->members.size(), 8u);
  EXPECT_EQ(doc->members[0].first, "s");  // document order
  EXPECT_EQ(doc->Find("s")->str, "hi");
  EXPECT_EQ(doc->Find("i")->kind, JsonValue::Kind::kInt);
  EXPECT_EQ(doc->Find("i")->integer, -42);
  EXPECT_EQ(doc->Find("d")->kind, JsonValue::Kind::kDouble);
  EXPECT_EQ(doc->Find("d")->AsDouble(), 2500.0);
  EXPECT_TRUE(doc->Find("t")->boolean);
  EXPECT_EQ(doc->Find("f")->kind, JsonValue::Kind::kBool);
  EXPECT_FALSE(doc->Find("f")->boolean);
  EXPECT_EQ(doc->Find("n")->kind, JsonValue::Kind::kNull);
  const JsonValue* a = doc->Find("a");
  ASSERT_EQ(a->items.size(), 3u);
  EXPECT_EQ(a->items[0].AsDouble(), 1.0);
  EXPECT_EQ(a->items[1].kind, JsonValue::Kind::kArray);
  EXPECT_EQ(a->items[2].kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc->Find("o")->Find("k")->str, "v");
  EXPECT_EQ(doc->Find("missing"), nullptr);
  EXPECT_EQ(a->Find("k"), nullptr);  // not an object
}

TEST(JsonReader, DecodesEscapes) {
  const Result<JsonValue> doc =
      ParseJson(R"("q\" b\\ s\/ \b\f\n\r\t \u0041\u00e9\u20AC\ud83d\ude00")");
  ASSERT_TRUE(doc.ok()) << doc.error();
  EXPECT_EQ(doc->str, "q\" b\\ s/ \b\f\n\r\t A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80");
}

TEST(JsonReader, RejectsMalformedText) {
  ExpectParseError("", "unexpected end of input");
  ExpectParseError("{\"a\": 1, \"a\": 2}", "duplicate key \"a\"");
  ExpectParseError("{} {}", "trailing content");
  ExpectParseError("\"raw\x01 byte\"", "raw control byte");
  ExpectParseError("\"tab\there\"", "raw control byte");
  ExpectParseError(R"("\x41")", "bad escape");
  ExpectParseError(R"("\u12G4")", "bad \\u escape");
  ExpectParseError(R"("\ud800")", "unpaired surrogate");
  ExpectParseError(R"("\udc00")", "unpaired surrogate");
  ExpectParseError(R"("\ud800A")", "unpaired surrogate");
  ExpectParseError("\"open", "unterminated string");
  ExpectParseError("[1, 2", "expected ']'");
  ExpectParseError("[1,]", "unexpected character");
  ExpectParseError("{\"a\" 1}", "expected ':'");
  ExpectParseError("{1: 2}", "expected a string key");
  ExpectParseError("tru", "bad literal");
  ExpectParseError("01", "bad number");
  ExpectParseError("-", "bad number");
  ExpectParseError("1.", "bad number");
  ExpectParseError("1e", "bad number");
  ExpectParseError("+1", "unexpected character");
  ExpectParseError("NaN", "unexpected character");
}

TEST(JsonReader, OutOfRangeNumbersAreErrorsNotExceptions) {
  ExpectParseError("{\"schema\": 99999999999999999999999}", "number out of range");
  ExpectParseError("-9223372036854775809", "number out of range");
  ExpectParseError("1e999", "number out of range");
  const Result<JsonValue> max = ParseJson("[9223372036854775807, -9223372036854775808, 0, -0]");
  ASSERT_TRUE(max.ok()) << max.error();
  EXPECT_EQ(max->items[0].integer, 9223372036854775807LL);
  EXPECT_EQ(max->items[1].integer, -9223372036854775807LL - 1);
}

TEST(JsonReader, NestingIsBounded) {
  const std::string ok = std::string(kMaxJsonDepth, '[') + std::string(kMaxJsonDepth, ']');
  EXPECT_TRUE(ParseJson(ok).ok());
  ExpectParseError("[" + ok + "]", "nesting deeper than");
  ExpectParseError(std::string(200000, '['), "nesting deeper than");
  ExpectParseError(std::string(200000, '{'), "expected a string key");
  std::string objects;
  for (int i = 0; i < 200000; ++i) objects += "{\"k\":";
  ExpectParseError(objects, "nesting deeper than");
}

// Every byte below 0x20 a writer can be handed must come back unchanged.
const char kHostile[] = "ctl\x01mid\x1f end \"q\" \\ tab\t nl\n";

TEST(JsonWriters, FindingControlBytesRoundTrip) {
  Finding f;
  f.tool = "sepcheck";
  f.unit = std::string("unit\x01") + kHostile;
  f.kind = "stale-annotation";
  f.line = 7;
  f.message = kHostile;
  f.discharge_reason = std::string("why\x1f");
  f.severity = FindingSeverity::kDischarged;
  f.witness = {1, 2};
  const std::string json = f.ToJson();
  const Result<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.error() << "\n" << json;
  EXPECT_EQ(doc->Find("unit")->str, f.unit);
  EXPECT_EQ(doc->Find("message")->str, f.message);
  EXPECT_EQ(doc->Find("discharge")->str, f.discharge_reason);
  EXPECT_EQ(doc->Find("severity")->str, "discharged");
  EXPECT_EQ(doc->Find("line")->integer, 7);
  EXPECT_EQ(doc->Find("witness")->items.size(), 2u);
}

TEST(JsonWriters, ObligationControlBytesRoundTrip) {
  sepcheck::Obligation o;
  o.unit = kHostile;
  o.address = 0x40;
  o.instruction = "MOV R1, (R5)\x01";
  o.detail = kHostile;
  o.status = sepcheck::ObligationStatus::kAnnotated;
  o.discharge_reason = "trusted\x1f";
  const Result<JsonValue> doc = ParseJson(o.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.error();
  EXPECT_EQ(doc->Find("unit")->str, o.unit);
  EXPECT_EQ(doc->Find("instruction")->str, o.instruction);
  EXPECT_EQ(doc->Find("detail")->str, o.detail);
  EXPECT_EQ(doc->Find("discharge")->str, o.discharge_reason);
  EXPECT_EQ(doc->Find("status")->str, "annotated");

  sepcheck::EntryObligations entry;
  entry.entry = std::string("entry\x01");
  entry.obligations = {o};
  const Result<JsonValue> ledger = ParseJson(sepcheck::RenderObligationsJson({entry}));
  ASSERT_TRUE(ledger.ok()) << ledger.error();
  const JsonValue& rendered = ledger->Find("entries")->items.at(0);
  EXPECT_EQ(rendered.Find("entry")->str, entry.entry);
  EXPECT_EQ(rendered.Find("obligations")->items.at(0).Find("detail")->str, o.detail);
}

}  // namespace
}  // namespace sep
