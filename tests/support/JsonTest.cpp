//===- tests/support/JsonTest.cpp ------------------------------*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

using namespace simdflat;
using namespace simdflat::json;

namespace {

TEST(Json, ScalarKinds) {
  EXPECT_TRUE(Value().isNull());
  EXPECT_TRUE(Value(true).isBool());
  EXPECT_TRUE(Value(true).asBool());
  EXPECT_TRUE(Value(int64_t{42}).isInt());
  EXPECT_EQ(Value(int64_t{42}).asInt(), 42);
  EXPECT_TRUE(Value(2.5).isNumber());
  EXPECT_DOUBLE_EQ(Value(2.5).asDouble(), 2.5);
  EXPECT_TRUE(Value("hi").isString());
  EXPECT_EQ(Value("hi").asString(), "hi");
  // Ints read back through the double accessor too.
  EXPECT_DOUBLE_EQ(Value(int64_t{7}).asDouble(), 7.0);
}

TEST(Json, ObjectInsertionOrderPreserved) {
  Value O = Value::object();
  O.set("zebra", int64_t{1});
  O.set("alpha", int64_t{2});
  O.set("mid", int64_t{3});
  ASSERT_EQ(O.members().size(), 3u);
  EXPECT_EQ(O.members()[0].first, "zebra");
  EXPECT_EQ(O.members()[1].first, "alpha");
  EXPECT_EQ(O.members()[2].first, "mid");
  ASSERT_NE(O.get("alpha"), nullptr);
  EXPECT_EQ(O.get("alpha")->asInt(), 2);
  EXPECT_EQ(O.get("absent"), nullptr);
  // Re-setting replaces in place, no duplicate key.
  O.set("alpha", int64_t{9});
  EXPECT_EQ(O.members().size(), 3u);
  EXPECT_EQ(O.get("alpha")->asInt(), 9);
}

TEST(Json, DumpParseRoundTrip) {
  Value Doc = Value::object();
  Doc.set("name", "bench/x");
  Doc.set("count", int64_t{-17});
  Doc.set("ratio", 0.1);
  Doc.set("flag", false);
  Doc.set("nothing", Value());
  Value Arr = Value::array();
  Arr.push(int64_t{1});
  Arr.push("two");
  Arr.push(3.5);
  Doc.set("items", std::move(Arr));
  Value Nested = Value::object();
  Nested.set("inner", int64_t{1});
  Doc.set("nested", std::move(Nested));

  for (int Indent : {0, 2}) {
    auto Back = Value::parse(Doc.dump(Indent));
    ASSERT_TRUE(Back.ok()) << Back.error().render();
    EXPECT_EQ(Back->get("name")->asString(), "bench/x");
    EXPECT_EQ(Back->get("count")->asInt(), -17);
    EXPECT_DOUBLE_EQ(Back->get("ratio")->asDouble(), 0.1);
    EXPECT_FALSE(Back->get("flag")->asBool());
    EXPECT_TRUE(Back->get("nothing")->isNull());
    ASSERT_EQ(Back->get("items")->size(), 3u);
    EXPECT_EQ(Back->get("items")->at(1).asString(), "two");
    EXPECT_EQ(Back->get("nested")->get("inner")->asInt(), 1);
    // Round-tripping the dump again is a fixed point.
    EXPECT_EQ(Back->dump(Indent), Doc.dump(Indent));
  }
}

TEST(Json, StringEscaping) {
  Value V(std::string("a\"b\\c\n\t\x01z"));
  std::string Dumped = V.dump();
  EXPECT_EQ(Dumped, "\"a\\\"b\\\\c\\n\\t\\u0001z\"");
  auto Back = Value::parse(Dumped);
  ASSERT_TRUE(Back.ok());
  EXPECT_EQ(Back->asString(), "a\"b\\c\n\t\x01z");
}

TEST(Json, ParseUnicodeEscapes) {
  auto V = Value::parse("\"\\u00e9\\u20ac\"");
  ASSERT_TRUE(V.ok());
  EXPECT_EQ(V->asString(), "\xc3\xa9\xe2\x82\xac"); // é then €
}

TEST(Json, ParseNumbers) {
  auto I = Value::parse("9223372036854775807");
  ASSERT_TRUE(I.ok());
  EXPECT_TRUE(I->isInt());
  EXPECT_EQ(I->asInt(), std::numeric_limits<int64_t>::max());
  // Overflowing the int64 range falls back to double, not an error.
  auto Big = Value::parse("123456789012345678901234567890");
  ASSERT_TRUE(Big.ok());
  EXPECT_TRUE(Big->isNumber());
  EXPECT_FALSE(Big->isInt());
  auto E = Value::parse("-1.25e3");
  ASSERT_TRUE(E.ok());
  EXPECT_DOUBLE_EQ(E->asDouble(), -1250.0);
}

TEST(Json, NonFiniteDoublesDumpSafely) {
  // NaN has no JSON spelling; the writer must not emit invalid tokens.
  EXPECT_EQ(Value(std::nan("")).dump(), "null");
  std::string Inf = Value(std::numeric_limits<double>::infinity()).dump();
  auto Back = Value::parse(Inf);
  ASSERT_TRUE(Back.ok());
  EXPECT_TRUE(Back->isNumber());
}

TEST(Json, OneLineFormParsesBackWithItsNumberKinds) {
  Value Doc = Value::object();
  Doc.set("cycles", 1234.0);
  Doc.set("tenth", 0.1);
  Doc.set("nan", std::nan(""));
  Doc.set("inf", std::numeric_limits<double>::infinity());
  Doc.set("-inf", -std::numeric_limits<double>::infinity());
  std::string Line = Doc.dumpLine();
  EXPECT_EQ(Line, "{\"cycles\":1234.0,\"tenth\":0.1,\"nan\":null,"
                  "\"inf\":1e308,\"-inf\":-1e308}");
  auto Back = Value::parse(Line);
  ASSERT_TRUE(Back.ok()) << Line << ": " << Back.error().render();
  EXPECT_EQ(Back->get("cycles")->kind(), Value::Kind::Double)
      << "1234.0 must not come back as an integer";
  EXPECT_EQ(Back->get("cycles")->asDouble(), 1234.0);
  EXPECT_EQ(Back->get("tenth")->asDouble(), 0.1);
  EXPECT_TRUE(Back->get("nan")->isNull());
  EXPECT_EQ(Back->get("inf")->asDouble(), 1e308);
  EXPECT_EQ(Back->get("-inf")->asDouble(), -1e308);
}

TEST(Json, OneLineAndIndentedFormsHoldTheSameDocument) {
  Value Doc = Value::object();
  Doc.set("s", std::string("a\"b\nc\x01"));
  Doc.set("empty_array", Value::array());
  Doc.set("empty_object", Value::object());
  Value Arr = Value::array();
  Arr.push(int64_t{-3});
  Arr.push(2.5);
  Value Inner = Value::object();
  Inner.set("t", true);
  Arr.push(std::move(Inner));
  Doc.set("arr", std::move(Arr));
  std::string Line = Doc.dumpLine();
  EXPECT_EQ(Line, "{\"s\":\"a\\\"b\\nc\\u0001\",\"empty_array\":[],"
                  "\"empty_object\":{},\"arr\":[-3,2.5,{\"t\":true}]}");
  auto FromLine = Value::parse(Line);
  ASSERT_TRUE(FromLine.ok()) << Line;
  EXPECT_EQ(FromLine->dump(), Doc.dump());
  auto FromDump = Value::parse(Doc.dump());
  ASSERT_TRUE(FromDump.ok());
  EXPECT_EQ(FromDump->dumpLine(), Line);
}

TEST(Json, CheckedInFilesAreWriterOutput) {
  // Every JSON file in the repository was written by writeFile, so it
  // must equal dump(parse(file)) plus the newline writeFile appends,
  // byte for byte: the writer's indented form is pinned by real files.
  namespace fs = std::filesystem;
  for (const char *Dir : {"bench/baselines", "tests/fuzz/corpus"}) {
    size_t Files = 0;
    for (const fs::directory_entry &E :
         fs::directory_iterator(fs::path(SIMDFLAT_SOURCE_DIR) / Dir)) {
      if (E.path().extension() != ".json")
        continue;
      std::ifstream In(E.path(), std::ios::binary);
      std::stringstream Buf;
      Buf << In.rdbuf();
      std::string Text = Buf.str();
      auto V = Value::parse(Text);
      ASSERT_TRUE(V.ok()) << E.path() << ": " << V.error().render();
      EXPECT_TRUE(Text == V->dump() + "\n") << E.path();
      ++Files;
    }
    EXPECT_GT(Files, 0u) << Dir;
  }
}

TEST(Json, ParseErrors) {
  for (const char *Bad :
       {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
        "{\"a\":1,}", "01", "1 2", "{\"a\" 1}", "[1 2]", "\"\\q\"",
        "nulll"}) {
    auto R = Value::parse(Bad);
    EXPECT_FALSE(R.ok()) << "accepted invalid input: " << Bad;
    if (!R.ok()) {
      EXPECT_FALSE(R.error().render().empty());
    }
  }
}

TEST(Json, RejectsDuplicateObjectKeys) {
  // Duplicate keys are a silent-data-loss hazard (last-wins would drop
  // the first binding unnoticed); the strict parser refuses them.
  auto R = Value::parse(R"({"a": 1, "b": 2, "a": 3})");
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.error().Message.find("duplicate object key"),
            std::string::npos);
  EXPECT_NE(R.error().Message.find("\"a\""), std::string::npos);
  // Nested objects are checked too, but an inner key may repeat an
  // outer one - scopes are independent.
  EXPECT_FALSE(Value::parse(R"({"o": {"x": 1, "x": 2}})").ok());
  EXPECT_TRUE(Value::parse(R"({"x": 1, "o": {"x": 2}})").ok());
  // Programmatic set() still replaces in place (not a parse).
  Value V = Value::object();
  V.set("k", 1);
  V.set("k", 2);
  EXPECT_EQ(V.get("k")->asInt(), 2);
}

TEST(Json, RejectsTrailingNonWhitespace) {
  for (const char *Bad : {"{} x", "1,", "[1] [2]", "null null",
                          "{\"a\": 1} }", "true\ngarbage"}) {
    auto R = Value::parse(Bad);
    ASSERT_FALSE(R.ok()) << "accepted: " << Bad;
    EXPECT_NE(R.error().Message.find("trailing"), std::string::npos)
        << Bad;
  }
  // Trailing whitespace (including a final newline, as writeFile
  // emits) is fine.
  EXPECT_TRUE(Value::parse("{\"a\": 1}\n").ok());
  EXPECT_TRUE(Value::parse("  [1, 2]  \t\r\n").ok());
}

TEST(Json, ParseDepthLimit) {
  std::string Deep(200, '[');
  Deep += std::string(200, ']');
  EXPECT_FALSE(Value::parse(Deep).ok());
  std::string Fine(50, '[');
  Fine += std::string(50, ']');
  EXPECT_TRUE(Value::parse(Fine).ok());
}

TEST(Json, FileRoundTrip) {
  Value Doc = Value::object();
  Doc.set("k", int64_t{5});
  std::string Path = testing::TempDir() + "/simdflat_json_test.json";
  ASSERT_TRUE(writeFile(Path, Doc));
  auto Back = parseFile(Path);
  ASSERT_TRUE(Back.ok()) << Back.error().render();
  EXPECT_EQ(Back->get("k")->asInt(), 5);
  EXPECT_FALSE(parseFile(Path + ".does-not-exist").ok());
}

} // namespace
