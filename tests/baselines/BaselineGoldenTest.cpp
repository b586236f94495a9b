//===- tests/baselines/BaselineGoldenTest.cpp - Pinned baseline reports ---===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the reports of small AFL and KLEE campaigns to recorded digests,
/// the baselines' counterpart of PFuzzerGoldenTest. A change to a
/// baseline's bookkeeping (its hit map, its state store) must keep every
/// digest; a change that alters a baseline's search on purpose updates
/// them here and says why. Covered: AFL in all three comparison-feedback
/// modes and KLEE, on the five evaluation subjects at a fixed seed and a
/// 3,000-execution budget. The digests were recorded in a RelWithDebInfo
/// build before the AFL hit map became a touched-slot list and the KLEE
/// seen set and queue became one arena-backed store; a Debug build with
/// ASan and UBSan gives the same digests.
///
//===----------------------------------------------------------------------===//

#include "baselines/AflFuzzer.h"
#include "baselines/KleeFuzzer.h"
#include "subjects/Subject.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

using namespace pfuzz;

namespace {

constexpr uint64_t GoldenSeed = 7;
constexpr uint64_t GoldenExecs = 3000;

/// FNV-1a over everything a report decides: the valid inputs (each
/// length-prefixed, in emission order), the covered branch outcomes, the
/// execution count and the coverage timeline.
uint64_t reportDigest(const FuzzReport &R) {
  uint64_t H = 0xCBF29CE484222325ULL;
  auto Mix = [&H](uint64_t V) {
    for (int I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xFF;
      H *= 0x100000001B3ULL;
    }
  };
  Mix(R.ValidInputs.size());
  for (const std::string &Input : R.ValidInputs) {
    Mix(Input.size());
    for (char C : Input) {
      H ^= static_cast<unsigned char>(C);
      H *= 0x100000001B3ULL;
    }
  }
  std::vector<uint32_t> Branches = R.ValidBranches.values();
  Mix(Branches.size());
  for (uint32_t B : Branches)
    Mix(B);
  Mix(R.Executions);
  Mix(R.CoverageTimeline.size());
  for (const auto &[Execs, Covered] : R.CoverageTimeline) {
    Mix(Execs);
    Mix(Covered);
  }
  return H;
}

enum class Tool { Afl, AflShared, AflPerKeyword, Klee };

const char *toolLabel(Tool T) {
  switch (T) {
  case Tool::Afl:
    return "afl";
  case Tool::AflShared:
    return "afl-ctp-shared";
  case Tool::AflPerKeyword:
    return "afl-ctp-per-keyword";
  case Tool::Klee:
    return "klee";
  }
  return "?";
}

std::unique_ptr<Fuzzer> makeTool(Tool T) {
  AflOptions Afl;
  switch (T) {
  case Tool::Afl:
    Afl.Cmp = CmpFeedback::None;
    break;
  case Tool::AflShared:
    Afl.Cmp = CmpFeedback::SharedSite;
    break;
  case Tool::AflPerKeyword:
    Afl.Cmp = CmpFeedback::PerKeyword;
    break;
  case Tool::Klee:
    return std::make_unique<KleeFuzzer>();
  }
  return std::make_unique<AflFuzzer>(Afl);
}

struct Golden {
  Tool T;
  const char *Subject;
  uint64_t Digest;
};

const Golden Goldens[] = {
    {Tool::Afl, "ini", 0x8F37F25C3E9DAD17ULL},
    {Tool::Afl, "csv", 0x7179003EAE7E5C71ULL},
    {Tool::Afl, "json", 0x1F01D76DEB28004FULL},
    {Tool::Afl, "tinyc", 0xB38193607F734028ULL},
    {Tool::Afl, "mjs", 0x16E821C06AC5A7FEULL},
    {Tool::AflShared, "ini", 0x8F37F25C3E9DAD17ULL},
    {Tool::AflShared, "csv", 0x7179003EAE7E5C71ULL},
    {Tool::AflShared, "json", 0x87049BB6C8811832ULL},
    {Tool::AflShared, "tinyc", 0x5AE1C39DC0ABCE0EULL},
    {Tool::AflShared, "mjs", 0x2949A77C8966BC76ULL},
    {Tool::AflPerKeyword, "ini", 0x8F37F25C3E9DAD17ULL},
    {Tool::AflPerKeyword, "csv", 0x7179003EAE7E5C71ULL},
    {Tool::AflPerKeyword, "json", 0x87049BB6C8811832ULL},
    {Tool::AflPerKeyword, "tinyc", 0x646AABC964C020E2ULL},
    {Tool::AflPerKeyword, "mjs", 0xF99D3A16DA8C9E2CULL},
    {Tool::Klee, "ini", 0xB2239D90D5B946AFULL},
    {Tool::Klee, "csv", 0xF1A3B1826415E538ULL},
    {Tool::Klee, "json", 0xEB064367DEADDE85ULL},
    {Tool::Klee, "tinyc", 0x290AA8AC4224F1EAULL},
    {Tool::Klee, "mjs", 0x2F5F5C5240E0ED89ULL},
};

} // namespace

TEST(BaselineGoldenTest, ReportsMatchRecordedDigests) {
  for (const Golden &G : Goldens) {
    const Subject *S = findSubject(G.Subject);
    ASSERT_NE(S, nullptr) << G.Subject;
    FuzzerOptions Opts;
    Opts.Seed = GoldenSeed;
    Opts.MaxExecutions = GoldenExecs;
    FuzzReport Report = makeTool(G.T)->run(*S, Opts);
    uint64_t Got = reportDigest(Report);
    char Hex[19];
    std::snprintf(Hex, sizeof(Hex), "0x%016llX",
                  static_cast<unsigned long long>(Got));
    EXPECT_EQ(Got, G.Digest) << toolLabel(G.T) << " on " << G.Subject
                             << ": got " << Hex;
    // A row that found nothing would pin only the execution count.
    EXPECT_FALSE(Report.ValidInputs.empty())
        << toolLabel(G.T) << " on " << G.Subject;
  }
}
