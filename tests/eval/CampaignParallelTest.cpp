//===- tests/eval/CampaignParallelTest.cpp - Jobs determinism tests -------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract of the parallel campaign executor: any Jobs value yields
/// results byte-identical to a sequential run. Every seed run owns its
/// fuzzer, Rng and token accounting, and the best-run reduction folds in
/// seed order, so thread scheduling can never leak into the outcome.
///
//===----------------------------------------------------------------------===//

#include "eval/Campaign.h"

#include <gtest/gtest.h>

using namespace pfuzz;

namespace {

/// Asserts that two campaign results agree on everything deterministic
/// (wall-clock timing is diagnostic and excluded by design).
void expectIdentical(const CampaignResult &A, const CampaignResult &B) {
  EXPECT_EQ(A.SubjectName, B.SubjectName);
  EXPECT_EQ(A.Tool, B.Tool);
  EXPECT_EQ(A.Report.Executions, B.Report.Executions);
  EXPECT_EQ(A.TotalExecutions, B.TotalExecutions);
  EXPECT_EQ(A.Report.ValidInputs, B.Report.ValidInputs);
  EXPECT_EQ(A.Report.ValidBranches, B.Report.ValidBranches);
  EXPECT_EQ(A.Report.CoverageTimeline, B.Report.CoverageTimeline);
  EXPECT_EQ(A.TokensFound, B.TokensFound);
}

} // namespace

TEST(CampaignParallelTest, PFuzzerJobs4IdenticalToJobs1OnDyck) {
  CampaignResult Seq =
      runCampaign(ToolKind::PFuzzer, dyckSubject(), 3000, 7, 4, /*Jobs=*/1);
  CampaignResult Par =
      runCampaign(ToolKind::PFuzzer, dyckSubject(), 3000, 7, 4, /*Jobs=*/4);
  expectIdentical(Seq, Par);
}

TEST(CampaignParallelTest, PFuzzerJobs4IdenticalToJobs1OnJson) {
  CampaignResult Seq =
      runCampaign(ToolKind::PFuzzer, jsonSubject(), 2500, 1, 4, /*Jobs=*/1);
  CampaignResult Par =
      runCampaign(ToolKind::PFuzzer, jsonSubject(), 2500, 1, 4, /*Jobs=*/4);
  expectIdentical(Seq, Par);
}

TEST(CampaignParallelTest, AflJobs4IdenticalToJobs1OnDyck) {
  CampaignResult Seq =
      runCampaign(ToolKind::Afl, dyckSubject(), 8000, 3, 4, /*Jobs=*/1);
  CampaignResult Par =
      runCampaign(ToolKind::Afl, dyckSubject(), 8000, 3, 4, /*Jobs=*/4);
  expectIdentical(Seq, Par);
}

TEST(CampaignParallelTest, AflJobs4IdenticalToJobs1OnJson) {
  CampaignResult Seq =
      runCampaign(ToolKind::Afl, jsonSubject(), 8000, 5, 4, /*Jobs=*/1);
  CampaignResult Par =
      runCampaign(ToolKind::Afl, jsonSubject(), 8000, 5, 4, /*Jobs=*/4);
  expectIdentical(Seq, Par);
}

TEST(CampaignParallelTest, JobsZeroMeansHardwareConcurrency) {
  // Jobs=0 (all hardware threads) must also match the sequential result.
  CampaignResult Seq =
      runCampaign(ToolKind::PFuzzer, arithSubject(), 2000, 2, 3, /*Jobs=*/1);
  CampaignResult Par =
      runCampaign(ToolKind::PFuzzer, arithSubject(), 2000, 2, 3, /*Jobs=*/0);
  expectIdentical(Seq, Par);
}

TEST(CampaignParallelTest, GridMatchesPerCellCampaigns) {
  std::vector<CampaignCell> Cells = {
      {ToolKind::PFuzzer, &dyckSubject(), 2000},
      {ToolKind::Afl, &jsonSubject(), 6000},
      {ToolKind::Random, &arithSubject(), 5000},
  };
  std::vector<CampaignResult> Grid = runCampaignGrid(Cells, 1, 2, /*Jobs=*/4);
  ASSERT_EQ(Grid.size(), Cells.size());
  for (size_t I = 0; I != Cells.size(); ++I) {
    CampaignResult Direct = runCampaign(Cells[I].Tool, *Cells[I].S,
                                        Cells[I].Executions, 1, 2, /*Jobs=*/1);
    // Grid results come back in cell order and match per-cell campaigns.
    expectIdentical(Grid[I], Direct);
  }
}

TEST(CampaignParallelTest, GridTracksTimingPerCell) {
  std::vector<CampaignCell> Cells = {
      {ToolKind::Random, &arithSubject(), 4000},
  };
  std::vector<CampaignResult> Grid = runCampaignGrid(Cells, 1, 2, /*Jobs=*/2);
  ASSERT_EQ(Grid.size(), 1u);
  EXPECT_EQ(Grid[0].TotalExecutions, 8000u);
  EXPECT_GT(Grid[0].WallSeconds, 0.0);
  EXPECT_GT(Grid[0].execsPerSec(), 0.0);
}

TEST(CampaignParallelTest, BudgetScaleSaturatesInsteadOfWrapping) {
  CampaignBudgets B;
  B.scale(UINT64_MAX / 2);
  // Every budget would overflow 2^64; the checked multiply must clamp to
  // UINT64_MAX rather than wrapping to a tiny budget.
  EXPECT_EQ(B.PFuzzerExecs, UINT64_MAX);
  EXPECT_EQ(B.AflExecs, UINT64_MAX);
  EXPECT_EQ(B.KleeExecs, UINT64_MAX);
  EXPECT_EQ(B.RandomExecs, UINT64_MAX);
  // Scaling by zero still works exactly.
  CampaignBudgets Z;
  Z.scale(0);
  EXPECT_EQ(Z.PFuzzerExecs, 0u);
}
