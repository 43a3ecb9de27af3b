// Tests for the minimal JSON reader (util/json.hpp): value kinds, raw
// number preservation, ordered object members, escapes, and strict error
// behavior — the properties simctl's --spec lowering relies on.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace skp {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_EQ(JsonValue::parse("true").as_bool(), true);
  EXPECT_EQ(JsonValue::parse("false").as_bool(), false);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(JsonValue::parse("42").number_text(), "42");
  EXPECT_DOUBLE_EQ(JsonValue::parse("-1.5e2").as_double(), -150.0);
}

TEST(Json, NumbersKeepRawLiteralText) {
  // The whole point of number_text(): a 64-bit seed or a decimal
  // threshold survives lowering to CLI flags without a double
  // round-trip.
  EXPECT_EQ(JsonValue::parse("18446744073709551615").number_text(),
            "18446744073709551615");
  EXPECT_EQ(JsonValue::parse("0.05").number_text(), "0.05");
  EXPECT_EQ(JsonValue::parse("-3e-7").number_text(), "-3e-7");
}

TEST(Json, ObjectMembersPreserveDocumentOrder) {
  const JsonValue doc =
      JsonValue::parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_EQ(doc.members().size(), 3u);
  EXPECT_EQ(doc.members()[0].first, "z");
  EXPECT_EQ(doc.members()[1].first, "a");
  EXPECT_EQ(doc.members()[2].first, "m");
  ASSERT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.find("a")->number_text(), "2");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, NestedContainersAndEscapes) {
  const JsonValue doc = JsonValue::parse(
      R"({"list": [1, "two", {"three": true}], "esc": "a\tb\"c\u0041"})");
  const JsonValue* list = doc.find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->items().size(), 3u);
  EXPECT_EQ(list->items()[0].number_text(), "1");
  EXPECT_EQ(list->items()[1].as_string(), "two");
  EXPECT_EQ(list->items()[2].find("three")->as_bool(), true);
  EXPECT_EQ(doc.find("esc")->as_string(), "a\tb\"cA");
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru", "01", "1.",
        "\"unterminated", "{\"a\":1} trailing", "[1 2]",
        "{\"dup\":1,\"dup\":2}", "\"bad\\q\"", "\"\\ud800\""}) {
    EXPECT_THROW(JsonValue::parse(bad), std::invalid_argument) << bad;
  }
}

TEST(Json, RejectsNestingPastTheDepthBound) {
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  const JsonValue deepest = JsonValue::parse(arrays(JsonValue::kMaxDepth));
  EXPECT_EQ(deepest.items().size(), 1u);
  EXPECT_THROW(JsonValue::parse(arrays(JsonValue::kMaxDepth + 1)),
               std::invalid_argument);
  // Deep enough to overflow an 8 MB stack without the bound.
  EXPECT_THROW(JsonValue::parse(arrays(100000)), std::invalid_argument);
  // Objects count as levels too.
  std::string objects;
  for (std::size_t i = 0; i <= JsonValue::kMaxDepth; ++i) objects += "{\"a\":";
  objects += "1" + std::string(JsonValue::kMaxDepth + 1, '}');
  EXPECT_THROW(JsonValue::parse(objects), std::invalid_argument);
  EXPECT_NO_THROW(JsonValue::parse(objects.substr(5, objects.size() - 6)));
}

TEST(Json, TypeMismatchesThrow) {
  const JsonValue num = JsonValue::parse("1");
  EXPECT_THROW(num.as_bool(), std::invalid_argument);
  EXPECT_THROW(num.as_string(), std::invalid_argument);
  EXPECT_THROW(num.items(), std::invalid_argument);
  EXPECT_THROW(num.members(), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("\"s\"").number_text(),
               std::invalid_argument);
}

}  // namespace
}  // namespace skp
