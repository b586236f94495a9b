//===- tests/core/PFuzzerInternalsTest.cpp - pFuzzer edge cases -----------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/PFuzzer.h"

#include <gtest/gtest.h>

#include <stdexcept>

using namespace pfuzz;

namespace {

/// A parser with swapped range bounds, as in `c >= 200 && c <= 'd'` typos:
/// the range admits nothing, but its recorded bounds (Lo=0xC8, Hi=0x64)
/// underflow a naive Hi - Lo + 1 candidate count. The only accepting
/// input starts with byte 0xC8 — unreachable for the fuzzer unless the
/// inverted range fabricates it as a boundary candidate.
class InvertedRangeSubject final : public Subject {
public:
  std::string_view name() const override { return "inverted-range"; }
  uint32_t numBranchSites() const override { return 2; }
  int run(ExecutionContext &Ctx) const override {
    TChar C = Ctx.nextChar();
    if (C.isEof())
      return 1;
    bool InRange = Ctx.cmpRange(C, static_cast<char>(0xC8), 'd');
    Ctx.recordBranch(0, InRange);
    // Validity checked on the raw byte, not through a recorded
    // comparison, so substitution candidates can only come from the
    // inverted range above.
    bool Valid = C.value() == 0xC8;
    Ctx.recordBranch(1, Valid);
    return Valid ? 0 : 1;
  }
};

} // namespace

TEST(PFuzzerInternalsTest, InvertedCharRangeYieldsNoExpansions) {
  // Random extensions only draw printables, so the sole way to reach the
  // accepting 0xC8 byte would be an expansion fabricated from the
  // inverted range's underflowed bounds. The campaign must instead burn
  // its whole budget finding nothing.
  InvertedRangeSubject S;
  PFuzzer Tool;
  FuzzerOptions Opts;
  Opts.Seed = 1;
  Opts.MaxExecutions = 3000;
  FuzzReport R = Tool.run(S, Opts);
  EXPECT_TRUE(R.ValidInputs.empty());
  EXPECT_EQ(R.Executions, 3000u);
}

TEST(PFuzzerInternalsTest, MaxInputLenRespected) {
  PFuzzer Tool;
  FuzzerOptions Opts;
  Opts.Seed = 1;
  Opts.MaxExecutions = 5000;
  Opts.MaxInputLen = 6;
  FuzzReport R = Tool.run(arithSubject(), Opts);
  for (const std::string &Input : R.ValidInputs)
    EXPECT_LE(Input.size(), 7u); // candidate <= 6, extension adds <= 1
}

TEST(PFuzzerInternalsTest, OnValidInputSeesEveryValidExecution) {
  PFuzzer Tool;
  FuzzerOptions Opts;
  Opts.Seed = 2;
  Opts.MaxExecutions = 4000;
  uint64_t Callbacks = 0;
  Opts.OnValidInput = [&Callbacks](std::string_view) { ++Callbacks; };
  FuzzReport R = Tool.run(arithSubject(), Opts);
  // Every *reported* input was a valid execution, and re-runs of valid
  // prefixes make the callback count at least as large.
  EXPECT_GE(Callbacks, R.ValidInputs.size());
}

TEST(PFuzzerInternalsTest, ZeroBudgetProducesNothing) {
  PFuzzer Tool;
  FuzzerOptions Opts;
  Opts.Seed = 1;
  Opts.MaxExecutions = 0;
  FuzzReport R = Tool.run(jsonSubject(), Opts);
  EXPECT_EQ(R.Executions, 0u);
  EXPECT_TRUE(R.ValidInputs.empty());
}

TEST(PFuzzerInternalsTest, TinyBudgetStillTerminates) {
  PFuzzer Tool;
  FuzzerOptions Opts;
  Opts.Seed = 1;
  for (uint64_t Budget : {1ull, 2ull, 3ull, 7ull}) {
    Opts.MaxExecutions = Budget;
    FuzzReport R = Tool.run(mjsSubject(), Opts);
    EXPECT_LE(R.Executions, Budget + 1);
  }
}

TEST(PFuzzerInternalsTest, NoDuplicateEmittedInputs) {
  PFuzzer Tool;
  FuzzerOptions Opts;
  Opts.Seed = 3;
  Opts.MaxExecutions = 10000;
  FuzzReport R = Tool.run(jsonSubject(), Opts);
  std::set<std::string> Unique(R.ValidInputs.begin(), R.ValidInputs.end());
  EXPECT_EQ(Unique.size(), R.ValidInputs.size());
}

TEST(PFuzzerInternalsTest, EmittedBranchSetConsistent) {
  // Re-running all emitted inputs reproduces exactly the reported
  // valid-branch set (determinism of subjects + bookkeeping).
  PFuzzer Tool;
  FuzzerOptions Opts;
  Opts.Seed = 4;
  Opts.MaxExecutions = 8000;
  FuzzReport R = Tool.run(tinycSubject(), Opts);
  std::set<uint32_t> Rebuilt;
  for (const std::string &Input : R.ValidInputs) {
    RunResult RR = tinycSubject().execute(Input);
    ASSERT_EQ(RR.ExitCode, 0);
    for (uint32_t B : RR.coveredBranches())
      Rebuilt.insert(B);
  }
  EXPECT_EQ(Rebuilt, R.ValidBranches.toSet());
}

TEST(PFuzzerInternalsTest, EveryEmittedInputAddedCoverageAtEmission) {
  // Replaying the emitted inputs in order: each must contribute at least
  // one branch outcome unseen so far (the line-29 validity condition).
  PFuzzer Tool;
  FuzzerOptions Opts;
  Opts.Seed = 5;
  Opts.MaxExecutions = 8000;
  FuzzReport R = Tool.run(jsonSubject(), Opts);
  std::set<uint32_t> Seen;
  for (const std::string &Input : R.ValidInputs) {
    RunResult RR = jsonSubject().execute(Input);
    bool AddedNew = false;
    for (uint32_t B : RR.coveredBranches())
      if (Seen.insert(B).second)
        AddedNew = true;
    EXPECT_TRUE(AddedNew) << "redundant emitted input: " << Input;
  }
}

TEST(PFuzzerInternalsTest, WorksOnAllSubjects) {
  for (const Subject *S : allSubjects()) {
    PFuzzer Tool;
    FuzzerOptions Opts;
    Opts.Seed = 1;
    Opts.MaxExecutions = 1500;
    FuzzReport R = Tool.run(*S, Opts);
    EXPECT_GE(R.Executions, 1499u) << S->name();
    for (const std::string &Input : R.ValidInputs)
      EXPECT_TRUE(S->accepts(Input)) << S->name() << ": " << Input;
  }
}

TEST(PFuzzerInternalsTest, RejectsMaxInputLenBeyondExactScores) {
  // Heap entries hold scores as exact floats, which holds only while the
  // length term stays small; a longer cap is refused up front instead of
  // silently reordering the queue.
  PFuzzer Tool;
  FuzzerOptions Opts;
  Opts.MaxExecutions = 10;
  Opts.MaxInputLen = CandidateStore::MaxExactInputLen + 1;
  EXPECT_THROW(Tool.run(arithSubject(), Opts), std::invalid_argument);
  Opts.MaxInputLen = CandidateStore::MaxExactInputLen;
  EXPECT_EQ(Tool.run(arithSubject(), Opts).Executions, 10u);
}
