//===- tests/eval/CampaignTest.cpp - Campaign runner tests ----------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/Campaign.h"

#include <gtest/gtest.h>

using namespace pfuzz;

TEST(CampaignTest, FactoryProducesAllTools) {
  for (ToolKind Kind : {ToolKind::PFuzzer, ToolKind::Afl, ToolKind::Klee}) {
    auto Tool = makeFuzzer(Kind);
    ASSERT_NE(Tool, nullptr);
    EXPECT_FALSE(Tool->name().empty());
  }
}

TEST(CampaignTest, ToolNames) {
  EXPECT_EQ(toolName(ToolKind::PFuzzer), "pFuzzer");
  EXPECT_EQ(toolName(ToolKind::Afl), "AFL");
  EXPECT_EQ(toolName(ToolKind::Klee), "KLEE");
}

TEST(CampaignTest, BudgetsScaleUniformly) {
  CampaignBudgets B;
  uint64_t P = B.PFuzzerExecs, A = B.AflExecs;
  B.scale(3);
  EXPECT_EQ(B.PFuzzerExecs, 3 * P);
  EXPECT_EQ(B.AflExecs, 3 * A);
  EXPECT_EQ(B.executionsFor(ToolKind::Afl), B.AflExecs);
  EXPECT_EQ(B.executionsFor(ToolKind::PFuzzer), B.PFuzzerExecs);
}

TEST(CampaignTest, RunCampaignCollectsTokens) {
  CampaignResult R =
      runCampaign(ToolKind::PFuzzer, arithSubject(), 4000, 1, 1);
  EXPECT_EQ(R.SubjectName, "arith");
  EXPECT_GT(R.Report.Executions, 0u);
  EXPECT_FALSE(R.TokensFound.empty());
  EXPECT_TRUE(R.TokensFound.count("number"));
}

TEST(CampaignTest, BestOfRunsNotWorseThanSingle) {
  CampaignResult Single =
      runCampaign(ToolKind::PFuzzer, jsonSubject(), 2500, 1, 1);
  CampaignResult BestOf3 =
      runCampaign(ToolKind::PFuzzer, jsonSubject(), 2500, 1, 3);
  EXPECT_GE(BestOf3.Report.ValidBranches.size(),
            Single.Report.ValidBranches.size());
}

TEST(CampaignTest, CoverageRatioBounded) {
  CampaignResult R =
      runCampaign(ToolKind::Afl, csvSubject(), 5000, 1, 1);
  double Ratio = R.coverageRatio(csvSubject());
  EXPECT_GE(Ratio, 0.0);
  EXPECT_LE(Ratio, 1.0);
  EXPECT_GT(Ratio, 0.1); // csv is shallow; AFL must cover something real
}
