//===- tests/subjects/JsonTest.cpp - JSON subject tests -------------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "subjects/Subject.h"

#include <gtest/gtest.h>

using namespace pfuzz;

namespace {

class JsonAccepts : public ::testing::TestWithParam<const char *> {};
class JsonRejects : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(JsonAccepts, Valid) {
  EXPECT_TRUE(jsonSubject().accepts(GetParam())) << "input: " << GetParam();
}

TEST_P(JsonRejects, Invalid) {
  EXPECT_FALSE(jsonSubject().accepts(GetParam())) << "input: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Scalars, JsonAccepts,
    ::testing::Values("0", "5", "42", "-1", "3.14", "1e10", "1E-2",
                      "2.5e+3", "true", "false", "null", "\"\"",
                      "\"abc\"", " 1 ", "\t\n 1 \r\n"));

INSTANTIATE_TEST_SUITE_P(
    Structures, JsonAccepts,
    ::testing::Values("[]", "[1]", "[1,2,3]", "[[[]]]", "{}",
                      "{\"a\":1}", "{\"a\":1,\"b\":[true,null]}",
                      "{\"k\":{\"n\":{}}}", "[{\"x\":\"y\"}, 2]"));

INSTANTIATE_TEST_SUITE_P(
    Escapes, JsonAccepts,
    ::testing::Values("\"a\\nb\"", "\"\\t\\r\\b\\f\"", "\"\\\\\"",
                      "\"\\\"\"", "\"\\/\"", "\"\\u0041\"",
                      "\"\\u00e9\"", "\"\\uD834\\uDD1E\"",
                      "\"\\uFFFF\""));

INSTANTIATE_TEST_SUITE_P(
    Invalid, JsonRejects,
    ::testing::Values("", " ", "tru", "truex", "TRUE", "nul", "+1",
                      "01", "1.", ".5", "1e", "-", "[", "[1,", "[1,]",
                      "{", "{\"a\"}", "{\"a\":}", "{a:1}", "{\"a\":1,}",
                      "\"", "\"abc", "\"\\x\"", "\"\\u12\"",
                      "\"\\u12G4\"", "\"\\uD834\"", "\"\\uD834\\u0041\"",
                      "\"\\uDC00\"", "1 2", "[1]]", "{} {}"));

TEST(JsonTest, KeywordRecognisedViaWrappedStrcmp) {
  RunResult RR = jsonSubject().execute("trXe");
  EXPECT_NE(RR.ExitCode, 0);
  bool SawTrueCmp = false;
  for (const ComparisonEvent &E : RR.Comparisons) {
    if (E.Kind == CompareKind::StrEq && RR.expected(E) == "true") {
      SawTrueCmp = true;
      EXPECT_FALSE(E.Matched);
      EXPECT_EQ(RR.actual(E), "trXe");
      EXPECT_EQ(E.Taint.minIndex(), 0u);
      EXPECT_EQ(E.Taint.maxIndex(), 3u);
    }
  }
  EXPECT_TRUE(SawTrueCmp);
}

TEST(JsonTest, HexDigitChecksAreImplicit) {
  // The \u hex validation must be invisible to the taint-based extraction
  // (the cJSON UTF-16 limitation of Section 5.2).
  RunResult RR = jsonSubject().execute("\"\\uZZZZ\"");
  EXPECT_NE(RR.ExitCode, 0);
  for (const ComparisonEvent &E : RR.Comparisons) {
    if (E.Kind == CompareKind::CharRange &&
        (RR.expected(E) == "09" || RR.expected(E) == "af" ||
         RR.expected(E) == "AF")) {
      EXPECT_TRUE(E.Implicit);
    }
  }
}

TEST(JsonTest, SurrogatePairsCoverExtraBranches) {
  RunResult Basic = jsonSubject().execute("\"\\u0041\"");
  RunResult Pair = jsonSubject().execute("\"\\uD834\\uDD1E\"");
  EXPECT_EQ(Basic.ExitCode, 0);
  EXPECT_EQ(Pair.ExitCode, 0);
  EXPECT_GT(Pair.coveredBranches().size(), Basic.coveredBranches().size());
}

TEST(JsonTest, ControlCharInStringRejected) {
  std::string Input = "\"a\x01b\"";
  EXPECT_FALSE(jsonSubject().accepts(Input));
  std::string Nul = "\"a";
  Nul.push_back('\0');
  Nul += "b\"";
  EXPECT_FALSE(jsonSubject().accepts(Nul));
}

TEST(JsonTest, DeepNestingHitsLimit) {
  std::string Deep(500, '[');
  EXPECT_FALSE(jsonSubject().accepts(Deep));
  // Within the limit, nesting works.
  std::string Ok = std::string(50, '[') + "1" + std::string(50, ']');
  EXPECT_TRUE(jsonSubject().accepts(Ok));
}

TEST(JsonTest, IncompleteValueHitsEof) {
  for (const char *Prefix : {"[1,", "{\"a\":", "\"abc", "tr"}) {
    RunResult RR = jsonSubject().execute(Prefix);
    EXPECT_NE(RR.ExitCode, 0) << Prefix;
    EXPECT_TRUE(RR.hitEof()) << Prefix;
  }
}

TEST(JsonTest, BranchSitesRegistered) {
  EXPECT_GT(jsonSubject().numBranchSites(), 40u);
}
