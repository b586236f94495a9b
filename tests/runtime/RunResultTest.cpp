//===- tests/runtime/RunResultTest.cpp - RunResult edge cases -------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ExecutionContext.h"

#include <gtest/gtest.h>

using namespace pfuzz;

TEST(RunResultTest, DefaultIsRejecting) {
  RunResult RR;
  EXPECT_NE(RR.ExitCode, 0);
  EXPECT_FALSE(RR.hitEof());
  EXPECT_TRUE(RR.coveredBranches().empty());
}

TEST(RunResultTest, CoveredBranchesDeduplicatesAndSorts) {
  RunResult RR;
  RR.BranchTrace = {9, 3, 9, 1, 3, 1, 9};
  std::vector<uint32_t> Covered = RR.coveredBranches();
  ASSERT_EQ(Covered.size(), 3u);
  EXPECT_EQ(Covered[0], 1u);
  EXPECT_EQ(Covered[1], 3u);
  EXPECT_EQ(Covered[2], 9u);
}

TEST(RunResultTest, DistinctBranchWalkHashesTheSetNotTheOrder) {
  // The campaign's parse-path key: the distinct outcomes before the
  // cutoff, each reported once, hashed regardless of trace order.
  auto walk = [](std::vector<uint32_t> Trace, uint32_t End,
                 std::vector<uint32_t> &Seen) {
    RunResult RR;
    RR.BranchTrace = std::move(Trace);
    Seen.clear();
    return RR.forEachDistinctBranchUpTo(
        End, [&Seen](uint32_t Entry) { Seen.push_back(Entry); });
  };
  std::vector<uint32_t> Seen;
  uint64_t Hash = walk({9, 3, 9, 0, 3, 0, 9, 5}, 7, Seen);
  EXPECT_EQ(Seen, (std::vector<uint32_t>{9, 3, 0})); // once each, in order
  std::vector<uint32_t> Other;
  EXPECT_EQ(walk({0, 0, 3, 9, 3}, 100, Other), Hash); // cutoff clamped
  EXPECT_EQ(Other, (std::vector<uint32_t>{0, 3, 9}));
  // The cutoff holds: 5 lies past it above, and counts below.
  EXPECT_NE(walk({9, 3, 9, 0, 3, 0, 9, 5}, 8, Other), Hash);
  // Different sets differ, including by entry 0 alone and the empty set.
  EXPECT_NE(walk({9, 3}, 2, Other), Hash);
  EXPECT_NE(walk({9, 3}, 2, Other), walk({}, 0, Other));
  EXPECT_NE(walk({0}, 1, Other), walk({}, 0, Other));
  EXPECT_NE(walk({1, 2}, 2, Other), walk({3}, 1, Other));
  EXPECT_EQ(walk({9, 3, 9}, 0, Other), walk({}, 0, Other));
  EXPECT_TRUE(Other.empty());
  // Walks over one recycled result share its seen array, and each one
  // reports every distinct entry again.
  RunResult RR;
  RR.BranchTrace = {4, 2, 4};
  for (int Pass = 0; Pass != 3; ++Pass) {
    size_t Calls = 0;
    RR.forEachDistinctBranchUpTo(3, [&Calls](uint32_t) { ++Calls; });
    EXPECT_EQ(Calls, 2u);
  }
}

TEST(RunResultTest, EmptyStringComparisonTracked) {
  ExecutionContext Ctx("x");
  TString Empty;
  EXPECT_FALSE(Ctx.cmpStr(Empty, "true"));
  EXPECT_TRUE(Ctx.cmpStr(Empty, ""));
  Ctx.setExitCode(0);
  RunResult RR = Ctx.takeResult();
  ASSERT_EQ(RR.Comparisons.size(), 2u);
  EXPECT_TRUE(RR.Comparisons[0].Taint.empty());
  EXPECT_FALSE(RR.Comparisons[0].Matched);
  EXPECT_TRUE(RR.Comparisons[1].Matched);
}

TEST(RunResultTest, TracePositionOrdersComparisonsAndBranches) {
  ExecutionContext Ctx("ab");
  TChar A = Ctx.nextChar();
  Ctx.recordBranch(0, Ctx.cmpEq(A, 'a'));
  TChar B = Ctx.nextChar();
  Ctx.recordBranch(1, Ctx.cmpEq(B, 'z'));
  Ctx.setExitCode(1);
  RunResult RR = Ctx.takeResult();
  ASSERT_EQ(RR.Comparisons.size(), 2u);
  // Each comparison fires before its branch is recorded.
  EXPECT_EQ(RR.Comparisons[0].TracePosition, 0u);
  EXPECT_EQ(RR.Comparisons[1].TracePosition, 1u);
}

TEST(RunResultTest, RepeatedEofAccessesAllRecorded) {
  ExecutionContext Ctx("");
  Ctx.nextChar();
  Ctx.nextChar();
  Ctx.peekChar();
  Ctx.setExitCode(1);
  RunResult RR = Ctx.takeResult();
  EXPECT_EQ(RR.EofAccesses.size(), 3u);
  // nextChar advances even past the end, so indices grow.
  EXPECT_EQ(RR.EofAccesses[0].AccessIndex, 0u);
  EXPECT_EQ(RR.EofAccesses[1].AccessIndex, 1u);
  EXPECT_EQ(RR.EofAccesses[2].AccessIndex, 2u);
}

TEST(RunResultTest, TakeResultMovesState) {
  ExecutionContext Ctx("a");
  Ctx.recordBranch(0, true);
  Ctx.setExitCode(0);
  RunResult First = Ctx.takeResult();
  EXPECT_EQ(First.BranchTrace.size(), 1u);
}
