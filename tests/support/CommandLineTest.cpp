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

TEST(CommandLine, FlagValueMatchesTheExactName) {
  std::string V = "unset";
  EXPECT_TRUE(flagValue("--lanes=4", "--lanes", V));
  EXPECT_EQ(V, "4");
  EXPECT_TRUE(flagValue("--stats-json=", "--stats-json", V));
  EXPECT_EQ(V, "");
  EXPECT_TRUE(flagValue("--set=a=b", "--set", V));
  EXPECT_EQ(V, "a=b") << "only the first '=' separates the value";
}

TEST(CommandLine, FlagValueRejectsNamesThatOnlyShareAPrefix) {
  std::string V = "unset";
  EXPECT_FALSE(flagValue("--lanesX=3", "--lanes", V));
  EXPECT_FALSE(flagValue("--cache-bytes-per-tenant=9", "--cache-bytes", V));
  EXPECT_FALSE(flagValue("--engine_fast=tree", "--engine", V));
  EXPECT_FALSE(flagValue("--seedless=3", "--seed", V));
  EXPECT_FALSE(flagValue("--lanes", "--lanes", V)) << "no '=', no value";
  EXPECT_FALSE(flagValue("--lane=3", "--lanes", V));
  EXPECT_FALSE(flagValue("-lanes=3", "--lanes", V));
  EXPECT_EQ(V, "unset") << "a failed match must leave the output alone";
}
