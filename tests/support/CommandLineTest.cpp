//===- tests/support/CommandLineTest.cpp -----------------------*- C++ -*-===//

#include "support/CommandLine.h"

#include <gtest/gtest.h>

using namespace simdflat;

TEST(CommandLine, ParseIntAcceptsWholeNumbers) {
  int64_t V = 0;
  EXPECT_TRUE(parseInt("42", V));
  EXPECT_EQ(V, 42);
  EXPECT_TRUE(parseInt("-7", V));
  EXPECT_EQ(V, -7);
  EXPECT_TRUE(parseInt("9223372036854775807", V));
  EXPECT_EQ(V, INT64_MAX);
}

TEST(CommandLine, ParseIntRejectsEmpty) {
  int64_t V = 5;
  EXPECT_FALSE(parseInt("", V));
  EXPECT_EQ(V, 5) << "a failed parse must leave the output alone";
}

TEST(CommandLine, ParseIntRejectsTrailingJunk) {
  int64_t V = 5;
  EXPECT_FALSE(parseInt("12abc", V));
  EXPECT_FALSE(parseInt("potato", V));
  EXPECT_FALSE(parseInt("3 ", V));
  EXPECT_FALSE(parseInt("1.5", V));
  EXPECT_EQ(V, 5);
}

TEST(CommandLine, ParseIntRejectsOutOfRange) {
  int64_t V = 5;
  EXPECT_FALSE(parseInt("9223372036854775808", V));
  EXPECT_FALSE(parseInt("-9223372036854775809", V));
  EXPECT_FALSE(parseInt("99999999999999999999999", V));
  EXPECT_EQ(V, 5);
}

TEST(CommandLine, OptionValueNeedsEquals) {
  std::string V = "unset";
  EXPECT_TRUE(optionValue("--lanes=4", V));
  EXPECT_EQ(V, "4");
  EXPECT_TRUE(optionValue("--stats-json=", V));
  EXPECT_EQ(V, "");
  EXPECT_TRUE(optionValue("--set=a=b", V));
  EXPECT_EQ(V, "a=b") << "only the first '=' separates the value";
  V = "unset";
  EXPECT_FALSE(optionValue("--lanes", V));
  EXPECT_EQ(V, "unset");
}
