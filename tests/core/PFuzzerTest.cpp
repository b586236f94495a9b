//===- tests/core/PFuzzerTest.cpp - pFuzzer behavioural tests -------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/PFuzzer.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace pfuzz;

namespace {

FuzzReport fuzz(const Subject &S, uint64_t Execs, uint64_t Seed = 1) {
  PFuzzer Tool;
  FuzzerOptions Opts;
  Opts.Seed = Seed;
  Opts.MaxExecutions = Execs;
  return Tool.run(S, Opts);
}

bool anyContains(const std::vector<std::string> &Inputs,
                 std::string_view Needle) {
  for (const std::string &I : Inputs)
    if (I.find(Needle) != std::string::npos)
      return true;
  return false;
}

} // namespace

TEST(PFuzzerTest, AllOutputsAreValidByConstruction) {
  for (const Subject *S :
       {&arithSubject(), &jsonSubject(), &tinycSubject()}) {
    FuzzReport R = fuzz(*S, 3000);
    for (const std::string &Input : R.ValidInputs)
      EXPECT_TRUE(S->accepts(Input))
          << S->name() << " emitted invalid input: " << Input;
  }
}

TEST(PFuzzerTest, FindsValidArithInputsQuickly) {
  FuzzReport R = fuzz(arithSubject(), 1500);
  EXPECT_FALSE(R.ValidInputs.empty());
}

TEST(PFuzzerTest, ArithDiversityMirrorsSection2) {
  // Section 2 promises inputs covering digits, signs and parentheses.
  FuzzReport R = fuzz(arithSubject(), 8000);
  EXPECT_TRUE(anyContains(R.ValidInputs, "("));
  bool SawSign = anyContains(R.ValidInputs, "+") ||
                 anyContains(R.ValidInputs, "-");
  EXPECT_TRUE(SawSign);
}

TEST(PFuzzerTest, SynthesisesJsonKeywords) {
  // The paper's headline: pFuzzer generates true/false/null on cJSON
  // (Section 5.3, Table 2 row of Figure 3).
  FuzzReport R = fuzz(jsonSubject(), 25000);
  EXPECT_TRUE(anyContains(R.ValidInputs, "true"));
  EXPECT_TRUE(anyContains(R.ValidInputs, "false"));
  EXPECT_TRUE(anyContains(R.ValidInputs, "null"));
}

TEST(PFuzzerTest, SynthesisesTinyCKeyword) {
  FuzzReport R = fuzz(tinycSubject(), 25000);
  bool AnyKeyword = anyContains(R.ValidInputs, "while") ||
                    anyContains(R.ValidInputs, "if") ||
                    anyContains(R.ValidInputs, "do");
  EXPECT_TRUE(AnyKeyword);
}

TEST(PFuzzerTest, DeterministicForSameSeed) {
  FuzzReport A = fuzz(jsonSubject(), 2000, 7);
  FuzzReport B = fuzz(jsonSubject(), 2000, 7);
  EXPECT_EQ(A.ValidInputs, B.ValidInputs);
  EXPECT_EQ(A.ValidBranches, B.ValidBranches);
}

TEST(PFuzzerTest, SeedsChangeExploration) {
  FuzzReport A = fuzz(jsonSubject(), 2000, 1);
  FuzzReport B = fuzz(jsonSubject(), 2000, 2);
  // Not a hard guarantee, but with different seeds the discovery order
  // should differ in practice.
  EXPECT_NE(A.ValidInputs, B.ValidInputs);
}

TEST(PFuzzerTest, RespectsExecutionBudget) {
  FuzzReport R = fuzz(jsonSubject(), 500);
  EXPECT_LE(R.Executions, 501u);
  EXPECT_GE(R.Executions, 499u);
}

TEST(PFuzzerTest, CoverageTimelineMonotone) {
  FuzzReport R = fuzz(jsonSubject(), 5000);
  ASSERT_FALSE(R.CoverageTimeline.empty());
  for (size_t I = 1; I < R.CoverageTimeline.size(); ++I) {
    EXPECT_LE(R.CoverageTimeline[I - 1].second,
              R.CoverageTimeline[I].second);
    EXPECT_LE(R.CoverageTimeline[I - 1].first,
              R.CoverageTimeline[I].first);
  }
}

TEST(PFuzzerTest, ValidInputsCoverNewBranchesOnly) {
  // Each reported input must have contributed coverage: there can be no
  // more reported inputs than covered branch outcomes.
  FuzzReport R = fuzz(jsonSubject(), 5000);
  EXPECT_LE(R.ValidInputs.size(), R.ValidBranches.size());
}

TEST(PFuzzerTest, IgnoresImplicitComparisons) {
  // On json, the \u hex digits are implicit: pFuzzer should never emit a
  // valid input containing a unicode escape (the Section 5.2 limitation).
  FuzzReport R = fuzz(jsonSubject(), 20000);
  EXPECT_FALSE(anyContains(R.ValidInputs, "\\u"));
}

TEST(PFuzzerTest, GrowsInputsBeyondOneCharacter) {
  FuzzReport R = fuzz(arithSubject(), 8000);
  size_t MaxLen = 0;
  for (const std::string &I : R.ValidInputs)
    MaxLen = std::max(MaxLen, I.size());
  EXPECT_GE(MaxLen, 3u);
}

TEST(PFuzzerTest, AblationWithoutReplacementBonusStillRuns) {
  HeuristicOptions NoBonus;
  NoBonus.ReplacementBonus = false;
  PFuzzer Tool(NoBonus);
  FuzzerOptions Opts;
  Opts.Seed = 1;
  Opts.MaxExecutions = 2000;
  FuzzReport R = Tool.run(jsonSubject(), Opts);
  EXPECT_GT(R.Executions, 0u);
}

TEST(PFuzzerTest, RejectsQueueCapBelowTwo) {
  // A trim keeps MaxQueue / 2 candidates: a cap of 0 or 1 would keep
  // none, and every push would trigger a rescore pass.
  FuzzerOptions Opts;
  Opts.MaxExecutions = 10;
  for (size_t Cap : {0u, 1u}) {
    PFuzzerOptions Options;
    Options.MaxQueue = Cap;
    EXPECT_THROW(PFuzzer(Options).run(arithSubject(), Opts),
                 std::invalid_argument)
        << "MaxQueue " << Cap;
  }
  PFuzzerOptions Options;
  Options.MaxQueue = 2;
  EXPECT_EQ(PFuzzer(Options).run(arithSubject(), Opts).Executions, 10u);
}

TEST(PFuzzerTest, RejectsZeroShards) {
  FuzzerOptions Opts;
  Opts.MaxExecutions = 10;
  PFuzzerOptions Options;
  Options.Shards = 0;
  EXPECT_THROW(PFuzzer(Options).run(arithSubject(), Opts),
               std::invalid_argument);
}
