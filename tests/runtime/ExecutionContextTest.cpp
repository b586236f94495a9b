//===- tests/runtime/ExecutionContextTest.cpp - Runtime tests -------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ExecutionContext.h"

#include <gtest/gtest.h>

#include <vector>

using namespace pfuzz;

TEST(ExecutionContextTest, ReadsCharactersWithTaints) {
  ExecutionContext Ctx("ab");
  TChar A = Ctx.nextChar();
  EXPECT_EQ(A.ch(), 'a');
  EXPECT_TRUE(A.taint().contains(0));
  TChar B = Ctx.nextChar();
  EXPECT_EQ(B.ch(), 'b');
  EXPECT_TRUE(B.taint().contains(1));
}

TEST(ExecutionContextTest, ReadPastEndRecordsEofAccess) {
  ExecutionContext Ctx("x");
  Ctx.nextChar();
  TChar Eof = Ctx.nextChar();
  EXPECT_TRUE(Eof.isEof());
  // The EOF sentinel carries the accessed index.
  EXPECT_TRUE(Eof.taint().contains(1));
  Ctx.setExitCode(1);
  RunResult RR = Ctx.takeResult();
  ASSERT_TRUE(RR.hitEof());
  EXPECT_EQ(RR.EofAccesses[0].AccessIndex, 1u);
}

TEST(ExecutionContextTest, PeekDoesNotConsume) {
  ExecutionContext Ctx("xy");
  EXPECT_EQ(Ctx.peekChar().ch(), 'x');
  EXPECT_EQ(Ctx.peekChar(1).ch(), 'y');
  EXPECT_EQ(Ctx.position(), 0u);
  EXPECT_EQ(Ctx.nextChar().ch(), 'x');
}

TEST(ExecutionContextTest, PeekPastEndRecordsEof) {
  ExecutionContext Ctx("x");
  Ctx.peekChar(3);
  Ctx.setExitCode(0);
  RunResult RR = Ctx.takeResult();
  ASSERT_EQ(RR.EofAccesses.size(), 1u);
  EXPECT_EQ(RR.EofAccesses[0].AccessIndex, 3u);
}

TEST(ExecutionContextTest, RepeatedPeeksAtSameCursorRecordOneEofAccess) {
  // A parser polling past the end at one position (peeking in a loop
  // before erroring out) observes the missing input once; duplicate
  // EofEvents would skew the substitution heuristic's EOF evidence.
  ExecutionContext Ctx("x");
  for (int I = 0; I != 5; ++I)
    EXPECT_TRUE(Ctx.peekChar(2).isEof());
  Ctx.setExitCode(1);
  RunResult RR = Ctx.takeResult();
  ASSERT_EQ(RR.EofAccesses.size(), 1u);
  EXPECT_EQ(RR.EofAccesses[0].AccessIndex, 2u);
}

TEST(ExecutionContextTest, AlternatingPastEndIndicesRecordSeparately) {
  // The dedup collapses only consecutive same-index accesses — distinct
  // positions (and returns to an earlier one) are distinct evidence.
  ExecutionContext Ctx("x");
  Ctx.peekChar(1);
  Ctx.peekChar(2);
  Ctx.peekChar(1);
  Ctx.setExitCode(1);
  RunResult RR = Ctx.takeResult();
  ASSERT_EQ(RR.EofAccesses.size(), 3u);
  EXPECT_EQ(RR.EofAccesses[0].AccessIndex, 1u);
  EXPECT_EQ(RR.EofAccesses[1].AccessIndex, 2u);
  EXPECT_EQ(RR.EofAccesses[2].AccessIndex, 1u);
}

TEST(ExecutionContextTest, ConsumingPastEndReadsAdvanceTheIndex) {
  // nextChar keeps consuming past the end, so a read loop records one
  // event per position, not one per call at a stuck cursor.
  ExecutionContext Ctx("");
  Ctx.nextChar();
  Ctx.nextChar();
  Ctx.setExitCode(1);
  RunResult RR = Ctx.takeResult();
  ASSERT_EQ(RR.EofAccesses.size(), 2u);
  EXPECT_EQ(RR.EofAccesses[0].AccessIndex, 0u);
  EXPECT_EQ(RR.EofAccesses[1].AccessIndex, 1u);
}

TEST(ExecutionContextTest, UngetRewindsOnePosition) {
  ExecutionContext Ctx("ab");
  Ctx.nextChar();
  Ctx.ungetChar();
  EXPECT_EQ(Ctx.nextChar().ch(), 'a');
}

TEST(ExecutionContextTest, CmpEqRecordsEvent) {
  ExecutionContext Ctx("a");
  TChar A = Ctx.nextChar();
  EXPECT_FALSE(Ctx.cmpEq(A, 'b'));
  EXPECT_TRUE(Ctx.cmpEq(A, 'a'));
  Ctx.setExitCode(0);
  RunResult RR = Ctx.takeResult();
  ASSERT_EQ(RR.Comparisons.size(), 2u);
  EXPECT_EQ(RR.Comparisons[0].Kind, CompareKind::CharEq);
  EXPECT_EQ(RR.expected(RR.Comparisons[0]), "b");
  EXPECT_EQ(RR.actual(RR.Comparisons[0]), "a");
  EXPECT_FALSE(RR.Comparisons[0].Matched);
  EXPECT_TRUE(RR.Comparisons[1].Matched);
  ASSERT_FALSE(RR.Comparisons[0].Taint.empty());
  EXPECT_EQ(RR.Comparisons[0].Taint.minIndex(), 0u);
  EXPECT_EQ(RR.Comparisons[0].Taint.maxIndex(), 0u);
}

TEST(ExecutionContextTest, CmpRangeUnsignedSemantics) {
  std::string Input;
  Input.push_back(static_cast<char>(0xF0));
  ExecutionContext Ctx(Input);
  TChar C = Ctx.nextChar();
  // As unsigned bytes 0xF0 is not within ['0', '9'].
  EXPECT_FALSE(Ctx.cmpRange(C, '0', '9'));
  // But it is within [0x80, 0xFF].
  EXPECT_TRUE(Ctx.cmpRange(C, static_cast<char>(0x80),
                           static_cast<char>(0xFF)));
}

TEST(ExecutionContextTest, CmpSetMatchesMembers) {
  ExecutionContext Ctx("+");
  TChar C = Ctx.nextChar();
  EXPECT_TRUE(Ctx.cmpSet(C, "+-"));
  EXPECT_FALSE(Ctx.cmpSet(C, "*/"));
  Ctx.setExitCode(0);
  RunResult RR = Ctx.takeResult();
  EXPECT_EQ(RR.Comparisons[0].Kind, CompareKind::CharSet);
  EXPECT_EQ(RR.expected(RR.Comparisons[0]), "+-");
}

TEST(ExecutionContextTest, EofNeverMatchesComparisons) {
  ExecutionContext Ctx("");
  TChar Eof = Ctx.nextChar();
  EXPECT_FALSE(Ctx.cmpEq(Eof, 'a'));
  EXPECT_FALSE(Ctx.cmpRange(Eof, 'a', 'z'));
  EXPECT_FALSE(Ctx.cmpSet(Eof, "abc"));
  Ctx.setExitCode(1);
  RunResult RR = Ctx.takeResult();
  for (const ComparisonEvent &E : RR.Comparisons)
    EXPECT_TRUE(E.OnEof);
}

TEST(ExecutionContextTest, CmpStrRecordsFullOperands) {
  ExecutionContext Ctx("whx");
  TString S;
  S.push_back(Ctx.nextChar());
  S.push_back(Ctx.nextChar());
  S.push_back(Ctx.nextChar());
  EXPECT_FALSE(Ctx.cmpStr(S, "while"));
  Ctx.setExitCode(1);
  RunResult RR = Ctx.takeResult();
  ASSERT_EQ(RR.Comparisons.size(), 1u);
  EXPECT_EQ(RR.Comparisons[0].Kind, CompareKind::StrEq);
  EXPECT_EQ(RR.expected(RR.Comparisons[0]), "while");
  EXPECT_EQ(RR.actual(RR.Comparisons[0]), "whx");
  EXPECT_EQ(RR.Comparisons[0].Taint.minIndex(), 0u);
  EXPECT_EQ(RR.Comparisons[0].Taint.maxIndex(), 2u);
}

TEST(ExecutionContextTest, CmpStrOnScatteredTaintRecordsItsBounds) {
  // A value derived from indices {0, 2, 5} spills to the heap form of
  // TaintSet; the event keeps only the bounds [0, 5].
  ExecutionContext Ctx("abcdef");
  std::vector<TChar> Chars;
  for (int I = 0; I != 6; ++I)
    Chars.push_back(Ctx.nextChar());
  TString S;
  S.push_back(Chars[0]);
  S.push_back(Chars[2]);
  S.push_back(Chars[5]);
  ASSERT_TRUE(S.taint().isSpilled());
  EXPECT_TRUE(Ctx.cmpStr(S, "acf"));
  Ctx.setExitCode(0);
  RunResult RR = Ctx.takeResult();
  ASSERT_EQ(RR.Comparisons.size(), 1u);
  const TaintBounds &Bounds = RR.Comparisons[0].Taint;
  ASSERT_FALSE(Bounds.empty());
  EXPECT_EQ(Bounds.minIndex(), 0u);
  EXPECT_EQ(Bounds.maxIndex(), 5u);
  EXPECT_EQ(Bounds, TaintBounds::forRange(0, 6));
}

TEST(ExecutionContextTest, UntaintedComparisonRecordsEmptyBounds) {
  ExecutionContext Ctx("x");
  EXPECT_TRUE(Ctx.cmpEq(TChar::constant('a'), 'a'));
  TString Literal;
  Literal.appendLiteral('k');
  EXPECT_TRUE(Ctx.cmpStr(Literal, "k"));
  Ctx.setExitCode(0);
  RunResult RR = Ctx.takeResult();
  ASSERT_EQ(RR.Comparisons.size(), 2u);
  EXPECT_TRUE(RR.Comparisons[0].Taint.empty());
  EXPECT_TRUE(RR.Comparisons[1].Taint.empty());
  EXPECT_EQ(RR.Comparisons[0].Taint, TaintBounds());
}

TEST(ExecutionContextTest, ImplicitFlagPropagates) {
  ExecutionContext Ctx("a");
  TChar C = Ctx.nextChar();
  Ctx.cmpEq(C, 'a', /*Implicit=*/true);
  Ctx.cmpEq(C, 'a', /*Implicit=*/false);
  Ctx.setExitCode(0);
  RunResult RR = Ctx.takeResult();
  EXPECT_TRUE(RR.Comparisons[0].Implicit);
  EXPECT_FALSE(RR.Comparisons[1].Implicit);
}

TEST(ExecutionContextTest, BranchTraceAndCoverage) {
  ExecutionContext Ctx("ab");
  Ctx.recordBranch(0, true);
  Ctx.recordBranch(1, false);
  Ctx.recordBranch(0, true); // repeat
  Ctx.setExitCode(0);
  RunResult RR = Ctx.takeResult();
  ASSERT_EQ(RR.BranchTrace.size(), 3u);
  EXPECT_EQ(RR.BranchTrace[0], 1u);  // (0 << 1) | 1
  EXPECT_EQ(RR.BranchTrace[1], 2u);  // (1 << 1) | 0
  std::vector<uint32_t> Covered = RR.coveredBranches();
  EXPECT_EQ(Covered.size(), 2u);
}

TEST(ExecutionContextTest, CoverageUpToCutsTrace) {
  ExecutionContext Ctx("");
  Ctx.recordBranch(0, true);
  Ctx.recordBranch(1, true);
  Ctx.setExitCode(0);
  RunResult RR = Ctx.takeResult();
  EXPECT_EQ(RR.coveredBranchesUpTo(1).size(), 1u);
  EXPECT_EQ(RR.coveredBranchesUpTo(0).size(), 0u);
  EXPECT_EQ(RR.coveredBranchesUpTo(99).size(), 2u);
}

TEST(ExecutionContextTest, StackDepthTracked) {
  ExecutionContext Ctx("a");
  EXPECT_EQ(Ctx.stackDepth(), 0u);
  {
    ExecutionContext::FunctionScope S1(Ctx, "outer");
    EXPECT_EQ(Ctx.stackDepth(), 1u);
    {
      ExecutionContext::FunctionScope S2(Ctx, "inner");
      EXPECT_EQ(Ctx.stackDepth(), 2u);
      TChar C = Ctx.nextChar();
      Ctx.cmpEq(C, 'a');
    }
  }
  EXPECT_EQ(Ctx.stackDepth(), 0u);
  Ctx.setExitCode(0);
  RunResult RR = Ctx.takeResult();
  EXPECT_EQ(RR.Comparisons[0].StackDepth, 2u);
}

TEST(ExecutionContextTest, CallTraceRecordsEnterExitWithCursor) {
  ExecutionContext Ctx("ab");
  {
    ExecutionContext::FunctionScope Outer(Ctx, "parse");
    Ctx.nextChar();
    {
      ExecutionContext::FunctionScope Inner(Ctx, "parseTail");
      Ctx.nextChar();
    }
  }
  Ctx.setExitCode(0);
  RunResult RR = Ctx.takeResult();
  ASSERT_EQ(RR.CallTrace.size(), 4u);
  ASSERT_EQ(RR.FunctionNames.size(), 2u);
  EXPECT_EQ(RR.FunctionNames[0], "parse");
  EXPECT_EQ(RR.FunctionNames[1], "parseTail");
  EXPECT_EQ(RR.CallTrace[0].NameId, 0);
  EXPECT_EQ(RR.CallTrace[0].Cursor, 0u);
  EXPECT_EQ(RR.CallTrace[1].NameId, 1);
  EXPECT_EQ(RR.CallTrace[1].Cursor, 1u);
  EXPECT_EQ(RR.CallTrace[2].NameId, -1); // exit parseTail
  EXPECT_EQ(RR.CallTrace[2].Cursor, 2u);
  EXPECT_EQ(RR.CallTrace[3].NameId, -1); // exit parse
}

TEST(ExecutionContextTest, CallTraceInternsRepeatedNames) {
  ExecutionContext Ctx("x");
  static const char *Name = "recurse";
  for (int I = 0; I < 3; ++I)
    ExecutionContext::FunctionScope Scope(Ctx, Name);
  Ctx.setExitCode(0);
  RunResult RR = Ctx.takeResult();
  EXPECT_EQ(RR.FunctionNames.size(), 1u);
  EXPECT_EQ(RR.CallTrace.size(), 6u);
}

TEST(ExecutionContextTest, OffModeRecordsNothing) {
  ExecutionContext Ctx("abc", InstrumentationMode::Off);
  TChar C = Ctx.nextChar();
  Ctx.cmpEq(C, 'a');
  Ctx.recordBranch(0, true);
  Ctx.peekChar(10);
  {
    ExecutionContext::FunctionScope Scope(Ctx, "noop");
  }
  Ctx.setExitCode(0);
  RunResult RR = Ctx.takeResult();
  EXPECT_TRUE(RR.Comparisons.empty());
  EXPECT_TRUE(RR.BranchTrace.empty());
  EXPECT_TRUE(RR.EofAccesses.empty());
  EXPECT_TRUE(RR.CallTrace.empty());
}

TEST(ExecutionContextTest, CoverageOnlyRecordsBranchesOnly) {
  ExecutionContext Ctx("abc", InstrumentationMode::CoverageOnly);
  TChar C = Ctx.nextChar();
  Ctx.cmpEq(C, 'a');
  Ctx.recordBranch(0, true);
  Ctx.setExitCode(0);
  RunResult RR = Ctx.takeResult();
  EXPECT_TRUE(RR.Comparisons.empty());
  EXPECT_EQ(RR.BranchTrace.size(), 1u);
}

TEST(ExecutionContextTest, ComparisonsModeSkipsCallTraceAndComparedBytes) {
  ExecutionContext Ctx("ab", InstrumentationMode::Comparisons);
  {
    ExecutionContext::FunctionScope Scope(Ctx, "parse");
    TChar A = Ctx.nextChar();
    Ctx.recordBranch(0, Ctx.cmpEq(A, 'a'));
    TString S;
    S.push_back(A);
    S.push_back(Ctx.nextChar());
    Ctx.cmpStr(S, "ab");
    Ctx.peekChar();
  }
  Ctx.setExitCode(0);
  RunResult RR = Ctx.takeResult();
  EXPECT_EQ(RR.Mode, InstrumentationMode::Comparisons);
  EXPECT_EQ(RR.BranchTrace.size(), 1u);
  ASSERT_EQ(RR.Comparisons.size(), 2u);
  EXPECT_EQ(RR.expected(RR.Comparisons[0]), "a");
  EXPECT_EQ(RR.expected(RR.Comparisons[1]), "ab");
  EXPECT_EQ(RR.Comparisons[0].StackDepth, 1u);
  EXPECT_EQ(RR.Comparisons[1].Taint, TaintBounds::forRange(0, 2));
  for (const ComparisonEvent &E : RR.Comparisons)
    EXPECT_EQ(E.Actual.Length, 0u);
  // Only the expected operands reach the arena.
  EXPECT_EQ(RR.EventChars, "aab");
  ASSERT_EQ(RR.EofAccesses.size(), 1u);
  EXPECT_EQ(RR.EofAccesses[0].AccessIndex, 2u);
  EXPECT_TRUE(RR.CallTrace.empty());
  EXPECT_TRUE(RR.FunctionNames.empty());
}

TEST(ExecutionContextTest, ActualRequiresFullModeDeathTest) {
#ifdef NDEBUG
  GTEST_SKIP() << "the mode assertion is compiled out without assertions";
#else
  ExecutionContext Ctx("a", InstrumentationMode::Comparisons);
  Ctx.cmpEq(Ctx.nextChar(), 'a');
  Ctx.setExitCode(0);
  RunResult RR = Ctx.takeResult();
  ASSERT_EQ(RR.Comparisons.size(), 1u);
  EXPECT_DEATH(RR.actual(RR.Comparisons[0]), "Full mode only");
#endif
}

TEST(ExecutionContextTest, ComparisonOutcomeSameAcrossModes) {
  for (InstrumentationMode Mode :
       {InstrumentationMode::Off, InstrumentationMode::CoverageOnly,
        InstrumentationMode::Comparisons, InstrumentationMode::Full}) {
    ExecutionContext Ctx("q", Mode);
    TChar C = Ctx.nextChar();
    EXPECT_TRUE(Ctx.cmpEq(C, 'q'));
    EXPECT_FALSE(Ctx.cmpEq(C, 'r'));
  }
}
