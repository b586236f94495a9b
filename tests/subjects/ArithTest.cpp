//===- tests/subjects/ArithTest.cpp - Section 2 subject tests -------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "subjects/Subject.h"

#include <gtest/gtest.h>

using namespace pfuzz;

namespace {

class ArithAccepts : public ::testing::TestWithParam<const char *> {};
class ArithRejects : public ::testing::TestWithParam<const char *> {};

} // namespace

TEST_P(ArithAccepts, Valid) {
  EXPECT_TRUE(arithSubject().accepts(GetParam())) << "input: " << GetParam();
}

TEST_P(ArithRejects, Invalid) {
  EXPECT_FALSE(arithSubject().accepts(GetParam())) << "input: " << GetParam();
}

// The Section 2 examples plus structural variants.
INSTANTIATE_TEST_SUITE_P(Paper, ArithAccepts,
                         ::testing::Values("1", "11", "+1", "-1", "1+1",
                                           "1-1", "(1)", "(2-94)"));

INSTANTIATE_TEST_SUITE_P(Nesting, ArithAccepts,
                         ::testing::Values("((1))", "(((42)))", "(1+2)-3",
                                           "1+2+3+4", "-(1)", "+(2-3)",
                                           "(1)+(2)", "0", "007"));

INSTANTIATE_TEST_SUITE_P(Basic, ArithRejects,
                         ::testing::Values("", "A", "(", ")", "+", "-",
                                           "1+", "(1", "1)", "()", "1 1",
                                           "1++1", "--1", "1.5", "a+b",
                                           " 1", "1 "));

TEST(ArithTest, EmptyInputHitsEof) {
  RunResult RR = arithSubject().execute("");
  EXPECT_NE(RR.ExitCode, 0);
  EXPECT_TRUE(RR.hitEof());
  EXPECT_EQ(RR.EofAccesses[0].AccessIndex, 0u);
}

TEST(ArithTest, RejectionComparesAgainstGrammarAlternatives) {
  // On "A" the parser must have compared index 0 against '(', '+'/'-' and
  // the digit range — the comparisons Figure 1 lists.
  RunResult RR = arithSubject().execute("A");
  EXPECT_NE(RR.ExitCode, 0);
  bool SawParen = false, SawSign = false, SawDigit = false;
  for (const ComparisonEvent &E : RR.Comparisons) {
    if (E.Taint.empty() || E.Taint.minIndex() != 0)
      continue;
    if (E.Kind == CompareKind::CharEq && RR.expected(E) == "(")
      SawParen = true;
    if (E.Kind == CompareKind::CharSet && RR.expected(E) == "+-")
      SawSign = true;
    if (E.Kind == CompareKind::CharRange && RR.expected(E) == "09")
      SawDigit = true;
  }
  EXPECT_TRUE(SawParen);
  EXPECT_TRUE(SawSign);
  EXPECT_TRUE(SawDigit);
}

TEST(ArithTest, ValidPrefixAccessesNextIndex) {
  // "(2" is a valid prefix; the parser should try to read further.
  RunResult RR = arithSubject().execute("(2");
  EXPECT_NE(RR.ExitCode, 0);
  ASSERT_TRUE(RR.hitEof());
  EXPECT_EQ(RR.EofAccesses[0].AccessIndex, 2u);
}

TEST(ArithTest, TrailingGarbageRejected) {
  RunResult RR = arithSubject().execute("1)");
  EXPECT_NE(RR.ExitCode, 0);
}

TEST(ArithTest, BranchSitesRegistered) {
  EXPECT_GT(arithSubject().numBranchSites(), 5u);
  EXPECT_LT(arithSubject().numBranchSites(), 40u);
}

TEST(ArithTest, ValidRunCoversBranches) {
  RunResult RR = arithSubject().execute("(2-94)");
  EXPECT_EQ(RR.ExitCode, 0);
  EXPECT_GT(RR.coveredBranches().size(), 8u);
}
