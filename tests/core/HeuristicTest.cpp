//===- tests/core/HeuristicTest.cpp - Heuristic unit tests ----------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Heuristic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace pfuzz;

namespace {

HeuristicInputs base() {
  HeuristicInputs In;
  In.NewBranches = 10;
  In.InputLen = 5;
  In.ReplacementLen = 1;
  In.AvgStackSize = 2;
  In.NumParents = 3;
  In.PathCount = 0;
  return In;
}

} // namespace

TEST(HeuristicTest, AllTermsFormula) {
  // 10 - 5 + 2*1 - 2 - 3 - 0 = 2
  EXPECT_DOUBLE_EQ(heuristicScore(base(), HeuristicOptions()), 2.0);
}

TEST(HeuristicTest, NewCoverageRaisesScore) {
  HeuristicInputs Hi = base(), Lo = base();
  Hi.NewBranches = 20;
  EXPECT_GT(heuristicScore(Hi, HeuristicOptions()),
            heuristicScore(Lo, HeuristicOptions()));
}

TEST(HeuristicTest, LongerInputsSink) {
  HeuristicInputs Short = base(), Long = base();
  Long.InputLen = 50;
  EXPECT_LT(heuristicScore(Long, HeuristicOptions()),
            heuristicScore(Short, HeuristicOptions()));
}

TEST(HeuristicTest, StringReplacementsRise) {
  HeuristicInputs Keyword = base(), Char = base();
  Keyword.ReplacementLen = 5; // e.g. "while"
  EXPECT_GT(heuristicScore(Keyword, HeuristicOptions()),
            heuristicScore(Char, HeuristicOptions()));
  // The bonus is exactly 2 per replacement character (line 49).
  EXPECT_DOUBLE_EQ(heuristicScore(Keyword, HeuristicOptions()) -
                       heuristicScore(Char, HeuristicOptions()),
                   8.0);
}

TEST(HeuristicTest, DeepStacksSink) {
  HeuristicInputs Deep = base();
  Deep.AvgStackSize = 9;
  EXPECT_LT(heuristicScore(Deep, HeuristicOptions()),
            heuristicScore(base(), HeuristicOptions()));
}

TEST(HeuristicTest, MoreParentsSink) {
  HeuristicInputs Chain = base();
  Chain.NumParents = 9;
  EXPECT_LT(heuristicScore(Chain, HeuristicOptions()),
            heuristicScore(base(), HeuristicOptions()));
}

TEST(HeuristicTest, HotPathsSinkButBounded) {
  HeuristicInputs Hot = base();
  Hot.PathCount = 5;
  EXPECT_LT(heuristicScore(Hot, HeuristicOptions()),
            heuristicScore(base(), HeuristicOptions()));
  HeuristicInputs VeryHot = base();
  VeryHot.PathCount = 1000000;
  HeuristicInputs Capped = base();
  Capped.PathCount = 24;
  EXPECT_DOUBLE_EQ(heuristicScore(VeryHot, HeuristicOptions()),
                   heuristicScore(Capped, HeuristicOptions()));
}

TEST(HeuristicTest, DisabledTermsHaveNoEffect) {
  HeuristicOptions NoLen;
  NoLen.LengthPenalty = false;
  HeuristicInputs Short = base(), Long = base();
  Long.InputLen = 100;
  EXPECT_DOUBLE_EQ(heuristicScore(Short, NoLen),
                   heuristicScore(Long, NoLen));

  HeuristicOptions NoRep;
  NoRep.ReplacementBonus = false;
  HeuristicInputs Big = base();
  Big.ReplacementLen = 50;
  EXPECT_DOUBLE_EQ(heuristicScore(Big, NoRep),
                   heuristicScore(base(), NoRep));

  HeuristicOptions NoStack;
  NoStack.StackSizeTerm = false;
  HeuristicInputs Deep = base();
  Deep.AvgStackSize = 100;
  EXPECT_DOUBLE_EQ(heuristicScore(Deep, NoStack),
                   heuristicScore(base(), NoStack));

  HeuristicOptions NoParents;
  NoParents.ParentCountTerm = false;
  HeuristicInputs Chain = base();
  Chain.NumParents = 100;
  EXPECT_DOUBLE_EQ(heuristicScore(Chain, NoParents),
                   heuristicScore(base(), NoParents));

  HeuristicOptions NoPath;
  NoPath.PathNovelty = false;
  HeuristicInputs Hot = base();
  Hot.PathCount = 100;
  EXPECT_DOUBLE_EQ(heuristicScore(Hot, NoPath),
                   heuristicScore(base(), NoPath));
}

TEST(HeuristicTest, RunTermPlusCandidateTermIsTheScoreExactly) {
  // The split the candidate store rescores with: the run term carries the
  // run's parent-chain base, the candidate term the extra link. A
  // half-integer stack depth and a path count past the cap exercise the
  // two terms that are not plain integers of the inputs.
  HeuristicInputs In;
  In.NewBranches = 17;
  In.InputLen = 9;
  In.ReplacementLen = 3;
  In.AvgStackSize = 2.5;
  In.NumParents = 4;
  In.PathCount = 30;
  for (unsigned Mask = 0; Mask != 32; ++Mask) {
    HeuristicOptions Opt;
    Opt.LengthPenalty = Mask & 1;
    Opt.ReplacementBonus = Mask & 2;
    Opt.StackSizeTerm = Mask & 4;
    Opt.ParentCountTerm = Mask & 8;
    Opt.PathNovelty = Mask & 16;
    SCOPED_TRACE("mask " + std::to_string(Mask));
    double Expected = 17.0 - (Opt.LengthPenalty ? 9 : 0) +
                      (Opt.ReplacementBonus ? 6 : 0) -
                      (Opt.StackSizeTerm ? 2.5 : 0) -
                      (Opt.ParentCountTerm ? 4 : 0) -
                      (Opt.PathNovelty ? 24 : 0);
    double Score = heuristicScore(In, Opt);
    EXPECT_EQ(Score, Expected);
    double Split = runTerm(In.NewBranches, In.AvgStackSize, In.NumParents - 1,
                           In.PathCount, Opt) +
                   static_cast<double>(candidateTerm(
                       In.InputLen, In.ReplacementLen, /*ParentDelta=*/1, Opt));
    EXPECT_EQ(Split, Score);
  }
}

TEST(HeuristicTest, PathPenaltyMovesExactlyWhenRunTermDoes) {
  // The campaign reports a path to the candidate store only when
  // pathPenaltyMoves says one more execution changes the run term; the
  // store's incremental rescore is exact only if that is never wrong.
  for (bool PathNovelty : {true, false}) {
    HeuristicOptions Opt;
    Opt.PathNovelty = PathNovelty;
    for (uint32_t Count = 0; Count != 2 * PathPenaltyCap; ++Count)
      EXPECT_EQ(pathPenaltyMoves(Count, Opt),
                runTerm(3, 1.5, 2, Count + 1, Opt) !=
                    runTerm(3, 1.5, 2, Count, Opt))
          << "count " << Count << " novelty " << PathNovelty;
  }
}
