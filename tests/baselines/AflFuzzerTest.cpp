//===- tests/baselines/AflFuzzerTest.cpp - AFL baseline tests -------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/AflFuzzer.h"

#include <gtest/gtest.h>

using namespace pfuzz;

namespace {

FuzzReport fuzz(const Subject &S, uint64_t Execs, uint64_t Seed = 1) {
  AflFuzzer Tool;
  FuzzerOptions Opts;
  Opts.Seed = Seed;
  Opts.MaxExecutions = Execs;
  return Tool.run(S, Opts);
}

} // namespace

TEST(AflFuzzerTest, FindsValidInputsOnShallowSubjects) {
  // ini/csv accept almost anything — AFL's home turf (Section 5.2).
  FuzzReport Ini = fuzz(iniSubject(), 20000);
  EXPECT_FALSE(Ini.ValidInputs.empty());
  FuzzReport Csv = fuzz(csvSubject(), 20000);
  EXPECT_FALSE(Csv.ValidInputs.empty());
}

TEST(AflFuzzerTest, ReportedInputsAreValid) {
  FuzzReport R = fuzz(csvSubject(), 10000);
  for (const std::string &Input : R.ValidInputs)
    EXPECT_TRUE(csvSubject().accepts(Input));
}

TEST(AflFuzzerTest, RespectsBudget) {
  // AFL spends its budget exactly, the initial seed's run included.
  for (uint64_t Budget : {0u, 1u, 1234u})
    EXPECT_EQ(fuzz(iniSubject(), Budget).Executions, Budget);
}

TEST(AflFuzzerTest, DeterministicForSameSeed) {
  FuzzReport A = fuzz(csvSubject(), 3000, 5);
  FuzzReport B = fuzz(csvSubject(), 3000, 5);
  EXPECT_EQ(A.ValidInputs, B.ValidInputs);
}

TEST(AflFuzzerTest, CoverageGrowsOverTime) {
  FuzzReport R = fuzz(jsonSubject(), 20000);
  ASSERT_GE(R.CoverageTimeline.size(), 2u);
  EXPECT_GE(R.CoverageTimeline.back().second,
            R.CoverageTimeline.front().second);
  EXPECT_GT(R.ValidBranches.size(), 0u);
}

TEST(AflFuzzerTest, FindsShortJsonTokensButNotKeywords) {
  // The paper: "AFL misses all json keywords" while covering the
  // single-character structure. With a modest budget the same shape
  // appears here.
  FuzzReport R = fuzz(jsonSubject(), 30000);
  bool SawKeyword = false;
  for (const std::string &I : R.ValidInputs)
    if (I.find("true") != std::string::npos ||
        I.find("false") != std::string::npos ||
        I.find("null") != std::string::npos)
      SawKeyword = true;
  EXPECT_FALSE(SawKeyword);
  EXPECT_FALSE(R.ValidInputs.empty());
}
