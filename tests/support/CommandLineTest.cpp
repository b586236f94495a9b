//===- tests/support/CommandLineTest.cpp - Flag parser tests --------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include <gtest/gtest.h>

#include <climits>

using namespace pfuzz;

static CommandLine parse(std::vector<const char *> Args) {
  Args.insert(Args.begin(), "prog");
  return CommandLine(static_cast<int>(Args.size()), Args.data());
}

TEST(CommandLineTest, ParsesKeyValueFlags) {
  CommandLine C = parse({"--seed=42", "--subject=json"});
  EXPECT_TRUE(C.ok());
  EXPECT_EQ(C.getInt("seed", 0), 42);
  EXPECT_EQ(C.getString("subject", ""), "json");
}

TEST(CommandLineTest, BareFlagIsTrue) {
  CommandLine C = parse({"--verbose"});
  EXPECT_TRUE(C.getBool("verbose", false));
}

TEST(CommandLineTest, DefaultsWhenAbsent) {
  CommandLine C = parse({});
  EXPECT_EQ(C.getInt("n", 7), 7);
  EXPECT_EQ(C.getString("s", "x"), "x");
  EXPECT_FALSE(C.getBool("b", false));
  EXPECT_TRUE(C.getBool("b2", true));
}

TEST(CommandLineTest, MalformedIntFallsBack) {
  CommandLine C = parse({"--n=abc", "--m=12x"});
  EXPECT_EQ(C.getInt("n", -1), -1);
  EXPECT_EQ(C.getInt("m", -1), -1);
}

TEST(CommandLineTest, NegativeInt) {
  CommandLine C = parse({"--n=-5"});
  EXPECT_EQ(C.getInt("n", 0), -5);
}

TEST(CommandLineTest, PositionalArguments) {
  CommandLine C = parse({"alpha", "--x=1", "beta"});
  ASSERT_EQ(C.positional().size(), 2u);
  EXPECT_EQ(C.positional()[0], "alpha");
  EXPECT_EQ(C.positional()[1], "beta");
}

TEST(CommandLineTest, DoubleDashRejected) {
  CommandLine C = parse({"--"});
  EXPECT_FALSE(C.ok());
}

TEST(CommandLineTest, UnqueriedFlagsReported) {
  CommandLine C = parse({"--known=1", "--typo=2"});
  (void)C.getInt("known", 0);
  auto Unused = C.unqueried();
  ASSERT_EQ(Unused.size(), 1u);
  EXPECT_EQ(Unused[0], "typo");
}

TEST(CommandLineTest, GetCountAcceptsValidValues) {
  CommandLine C = parse({"--jobs=4", "--offset=-1"});
  EXPECT_EQ(C.getCount("jobs", 1), 4);
  EXPECT_EQ(C.getCount("offset", 0, /*Min=*/-1), -1);
  EXPECT_EQ(C.getCount("absent", 9), 9);
  EXPECT_TRUE(C.ok());
  EXPECT_TRUE(C.errors().empty());
}

TEST(CommandLineTest, GetCountRejectsGarbage) {
  // Where getInt silently falls back, a count flag must turn the whole
  // parse into a usage error naming the flag and the offending value.
  CommandLine C = parse({"--run-cache=abc"});
  EXPECT_EQ(C.getCount("run-cache", 64), 64);
  EXPECT_FALSE(C.ok());
  ASSERT_EQ(C.errors().size(), 1u);
  EXPECT_NE(C.errors()[0].find("--run-cache"), std::string::npos);
  EXPECT_NE(C.errors()[0].find("abc"), std::string::npos);
}

TEST(CommandLineTest, GetCountRejectsNegativeAndTrailingJunk) {
  CommandLine C = parse({"--jobs=-2", "--resume-cache=12x", "--depth="});
  EXPECT_EQ(C.getCount("jobs", 1), 1);
  EXPECT_EQ(C.getCount("resume-cache", 0), 0);
  EXPECT_EQ(C.getCount("depth", 3), 3);
  EXPECT_FALSE(C.ok());
  EXPECT_EQ(C.errors().size(), 3u);
}

TEST(CommandLineTest, GetCountHonorsSentinelFloor) {
  // A flag with floor -1 admits -1 but nothing below it.
  CommandLine C = parse({"--offset=-2"});
  EXPECT_EQ(C.getCount("offset", 0, /*Min=*/-1), 0);
  EXPECT_FALSE(C.ok());
  ASSERT_EQ(C.errors().size(), 1u);
  EXPECT_NE(C.errors()[0].find(">= -1"), std::string::npos);
}

TEST(CommandLineTest, IntBoundariesExactValuesAccepted) {
  // The extreme representable values parse exactly; one past either end
  // must NOT saturate to them (see the rejection tests below).
  CommandLine C = parse({"--max=9223372036854775807",
                         "--min=-9223372036854775808"});
  EXPECT_EQ(C.getInt("max", 0), INT64_MAX);
  EXPECT_EQ(C.getInt("min", 0), INT64_MIN);
  EXPECT_EQ(C.getCount("max", 0), INT64_MAX);
}

TEST(CommandLineTest, IntOverflowFallsBackInsteadOfSaturating) {
  // strtoll clamps out-of-range input to LLONG_MAX/LLONG_MIN with
  // errno=ERANGE; getInt must not hand that clamp to the caller —
  // "--execs=<too many digits>" would silently run a near-unbounded
  // campaign instead of surfacing the typo.
  CommandLine C = parse({"--a=9223372036854775808",
                         "--b=-9223372036854775809",
                         "--c=18446744073709551616",
                         "--d=99999999999999999999999999"});
  EXPECT_EQ(C.getInt("a", -7), -7);
  EXPECT_EQ(C.getInt("b", -7), -7);
  EXPECT_EQ(C.getInt("c", -7), -7);
  EXPECT_EQ(C.getInt("d", -7), -7);
}

TEST(CommandLineTest, GetCountRejectsIntBoundaryOverflow) {
  // Same boundary discipline as getInt, but loud: counts push a usage
  // error instead of silently keeping the default.
  CommandLine C = parse({"--jobs=9223372036854775808",
                         "--runs=18446744073709551616"});
  EXPECT_EQ(C.getCount("jobs", 1), 1);
  EXPECT_EQ(C.getCount("runs", 3), 3);
  EXPECT_FALSE(C.ok());
  EXPECT_EQ(C.errors().size(), 2u);
}

TEST(CommandLineTest, PlusPrefixedIntegersAccepted) {
  // strtoll admits an explicit sign; pin that so a future rewrite with a
  // stricter hand-rolled parser fails this test rather than silently
  // changing flag acceptance.
  CommandLine C = parse({"--n=+5", "--jobs=+8"});
  EXPECT_EQ(C.getInt("n", 0), 5);
  EXPECT_EQ(C.getCount("jobs", 1), 8);
  EXPECT_TRUE(C.errors().empty());
}

TEST(CommandLineTest, NonAsciiDigitsRejected) {
  // Locale or Unicode digits (Arabic-Indic five here) never parse —
  // strtoll is byte-oriented and stops at the first non-ASCII byte.
  CommandLine C = parse({"--n=\xd9\xa5", "--jobs=\xd9\xa5"});
  EXPECT_EQ(C.getInt("n", -7), -7);
  EXPECT_EQ(C.getCount("jobs", 1), 1);
  EXPECT_FALSE(C.ok());
  EXPECT_EQ(C.errors().size(), 1u);
}

TEST(CommandLineTest, HexAndWhitespaceForms) {
  // Base-10 only: hex rejects. Leading whitespace is consumed by
  // strtoll (pinned, not endorsed); trailing whitespace is junk.
  CommandLine C = parse({"--hex=0x10", "--lead= 5", "--trail=5 "});
  EXPECT_EQ(C.getInt("hex", -7), -7);
  EXPECT_EQ(C.getInt("lead", -7), 5);
  EXPECT_EQ(C.getInt("trail", -7), -7);
}

TEST(CommandLineTest, BoolParsesCommonSpellings) {
  CommandLine C = parse({"--a=true", "--b=1", "--c=false", "--d=0"});
  EXPECT_TRUE(C.getBool("a", false));
  EXPECT_TRUE(C.getBool("b", false));
  EXPECT_FALSE(C.getBool("c", true));
  EXPECT_FALSE(C.getBool("d", true));
}
