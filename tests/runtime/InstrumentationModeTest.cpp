//===- tests/runtime/InstrumentationModeTest.cpp - Mode equivalence -------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// pFuzzer and the KLEE baseline run subjects in Comparisons mode, the
/// grammar miner and AFL-CTP in Full mode. The lean mode must record
/// exactly what Full records of the branches, EOF accesses and comparison
/// events, and nothing of the call trace or the compared bytes. Checked on
/// every subject over a fixed corpus of valid inputs, rejected inputs and
/// every proper prefix of the valid ones (which read past the end).
///
//===----------------------------------------------------------------------===//

#include "subjects/Subject.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace pfuzz;

namespace {

struct ModeCorpus {
  std::vector<std::string> Valid;
  std::vector<std::string> Rejected;
};

ModeCorpus corpusFor(std::string_view Name) {
  if (Name == "arith")
    return {{"(2-94)", "1+2"}, {"A", "1)"}};
  if (Name == "dyck")
    return {{"(<[]>)"}, {"(>", "[)"}};
  if (Name == "ini")
    return {{"[one]\na=1\nb=2\n[two]\nc=3\n"}, {"[one\n", "=\n"}};
  if (Name == "csv")
    return {{"a,b,c\n\"quoted, field\",2,3\nx,\"y\"\"z\",w\n"}, {"\"a\"b\""}};
  if (Name == "json")
    return {{"{\"a\":[1,2.5,-3,true,false,null],\"b\":{\"s\":\"str\"}}"},
            {"{\"a\":trXe}", "[1,]"}};
  if (Name == "ll1arith")
    return {{"(1)+2"}, {"A", "1)"}};
  if (Name == "tinyc")
    return {{"{i=0;while(i<9){i=i+1;if(i<5)a=a+i;else b=b+i;}}"},
            {"{whx;}", "{a=;}"}};
  if (Name == "mjs")
    return {{"var a=[1,2,3];for(var i=0;i<3;i=i+1){a.push(i*2);}"
             "if(a.length>4){a=a.slice(1);}"},
            {"var =1;", "if(1{}"}};
  // mjssem
  return {{"function f(a){return a;}f(1);"}, {"ghost+1;", "var =1;"}};
}

/// Every field of two comparison events except the compared bytes, with
/// the expected operand resolved against each run's own arena (Full's
/// arena interleaves the compared bytes, so the offsets differ).
void expectSameEvent(const RunResult &Full, const ComparisonEvent &F,
                     const RunResult &Lean, const ComparisonEvent &L) {
  EXPECT_EQ(F.Taint, L.Taint);
  EXPECT_EQ(F.Kind, L.Kind);
  EXPECT_EQ(Full.expected(F), Lean.expected(L));
  EXPECT_EQ(F.Matched, L.Matched);
  EXPECT_EQ(F.OnEof, L.OnEof);
  EXPECT_EQ(F.Implicit, L.Implicit);
  EXPECT_EQ(F.StackDepth, L.StackDepth);
  EXPECT_EQ(F.TracePosition, L.TracePosition);
}

void expectModesAgree(const Subject &S, const std::string &Input) {
  SCOPED_TRACE(std::string(S.name()) + " on \"" + Input + "\"");
  RunResult Full = S.execute(Input, InstrumentationMode::Full);
  RunResult Lean = S.execute(Input, InstrumentationMode::Comparisons);
  EXPECT_EQ(Full.Mode, InstrumentationMode::Full);
  EXPECT_EQ(Lean.Mode, InstrumentationMode::Comparisons);

  EXPECT_EQ(Full.ExitCode, Lean.ExitCode);
  EXPECT_EQ(Full.BranchTrace, Lean.BranchTrace);
  ASSERT_EQ(Full.EofAccesses.size(), Lean.EofAccesses.size());
  for (size_t I = 0; I != Full.EofAccesses.size(); ++I)
    EXPECT_EQ(Full.EofAccesses[I].AccessIndex,
              Lean.EofAccesses[I].AccessIndex);
  ASSERT_EQ(Full.Comparisons.size(), Lean.Comparisons.size());
  for (size_t I = 0; I != Full.Comparisons.size(); ++I)
    expectSameEvent(Full, Full.Comparisons[I], Lean, Lean.Comparisons[I]);

  EXPECT_TRUE(Lean.CallTrace.empty());
  EXPECT_TRUE(Lean.FunctionNames.empty());
  for (const ComparisonEvent &E : Lean.Comparisons)
    EXPECT_EQ(E.Actual.Length, 0u);
}

} // namespace

TEST(InstrumentationModeTest, ComparisonsRecordsWhatFullRecordsButCallsAndBytes) {
  for (const Subject *S : allSubjects()) {
    ModeCorpus C = corpusFor(S->name());
    size_t EofRuns = 0;
    for (const std::string &In : C.Valid) {
      ASSERT_TRUE(S->accepts(In)) << S->name() << ": " << In;
      expectModesAgree(*S, In);
      for (size_t Len = 0; Len != In.size(); ++Len) {
        std::string Prefix = In.substr(0, Len);
        expectModesAgree(*S, Prefix);
        if (S->execute(Prefix, InstrumentationMode::Comparisons).hitEof())
          ++EofRuns;
      }
    }
    for (const std::string &In : C.Rejected) {
      ASSERT_FALSE(S->accepts(In)) << S->name() << ": " << In;
      expectModesAgree(*S, In);
    }
    // The corpus exercises the EOF evidence, not only complete inputs.
    EXPECT_GT(EofRuns, 0u) << S->name();
  }
}

TEST(InstrumentationModeTest, FullRecordsWhatComparisonsLeavesOut) {
  // The other half of the contract: the corpus does reach the call trace
  // and the compared bytes, so their absence above is the mode's doing.
  for (const Subject *S : allSubjects()) {
    std::string In = corpusFor(S->name()).Valid.front();
    RunResult Full = S->execute(In, InstrumentationMode::Full);
    EXPECT_FALSE(Full.CallTrace.empty()) << S->name();
    EXPECT_FALSE(Full.FunctionNames.empty()) << S->name();
    size_t WithBytes = 0;
    for (const ComparisonEvent &E : Full.Comparisons)
      WithBytes += E.Actual.Length != 0;
    EXPECT_GT(WithBytes, 0u) << S->name();
  }
}

TEST(InstrumentationModeTest, RecycledResultTakesTheNewMode) {
  // One pooled RunResult moving between modes records each run in its
  // own mode: nothing of a Full run survives into a Comparisons run.
  const Subject &S = arithSubject();
  RunResult RR;
  S.execute("(2-94)", InstrumentationMode::Full, RR);
  ASSERT_FALSE(RR.CallTrace.empty());
  S.execute("(2-94)", InstrumentationMode::Comparisons, RR);
  EXPECT_EQ(RR.Mode, InstrumentationMode::Comparisons);
  EXPECT_TRUE(RR.CallTrace.empty());
  EXPECT_TRUE(RR.FunctionNames.empty());
  EXPECT_FALSE(RR.Comparisons.empty());
  S.execute("(2-94)", InstrumentationMode::CoverageOnly, RR);
  EXPECT_EQ(RR.Mode, InstrumentationMode::CoverageOnly);
  EXPECT_TRUE(RR.Comparisons.empty());
  EXPECT_FALSE(RR.BranchTrace.empty());
}
