//===- tests/core/PFuzzerGoldenTest.cpp - Pinned campaign reports ---------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the reports of small pFuzzer campaigns to digests recorded from an
/// earlier engine. A change to the engine that is meant to leave the
/// search alone (a refactor, a deleted throughput layer) must keep every
/// digest; a change that alters the search on purpose updates them here
/// and says why. Covered: the five evaluation subjects at a fixed seed
/// and a 3,000-execution budget, unsharded and at 4 shards. The digests
/// were recorded in both a Debug and a Release build and match.
///
//===----------------------------------------------------------------------===//

#include "core/PFuzzer.h"
#include "subjects/Subject.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace pfuzz;

namespace {

constexpr uint64_t GoldenSeed = 7;
constexpr uint64_t GoldenExecs = 3000;

/// FNV-1a over everything a report decides: the valid inputs (each
/// length-prefixed, in emission order), the covered branch outcomes and
/// the execution count.
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
  return H;
}

uint64_t campaignDigest(const Subject &S, uint32_t Shards) {
  PFuzzerOptions Options;
  Options.Shards = Shards;
  PFuzzer Tool(Options);
  FuzzerOptions Opts;
  Opts.Seed = GoldenSeed;
  Opts.MaxExecutions = GoldenExecs;
  return reportDigest(Tool.run(S, Opts));
}

struct Golden {
  const char *Subject;
  uint32_t Shards;
  uint64_t Digest;
};

const Golden Goldens[] = {
    {"ini", 1, 0x2D047806B089C7E8ULL},   {"csv", 1, 0xA1A532CC2762ED13ULL},
    {"json", 1, 0xEB52E582E9EABFCFULL},  {"tinyc", 1, 0x439368C479D60440ULL},
    {"mjs", 1, 0x1ECD88BEE2DCFD8DULL},   {"ini", 4, 0xDF37EC6897302A98ULL},
    {"csv", 4, 0xEF0DDDFA9332D558ULL},   {"json", 4, 0x703F4D32AF615E37ULL},
    {"tinyc", 4, 0x7D295423BDB370D4ULL}, {"mjs", 4, 0xB754EEE0B1FE5C89ULL},
};

} // namespace

TEST(PFuzzerGoldenTest, ReportsMatchRecordedDigests) {
  for (const Golden &G : Goldens) {
    const Subject *S = findSubject(G.Subject);
    ASSERT_NE(S, nullptr) << G.Subject;
    uint64_t Got = campaignDigest(*S, G.Shards);
    char Hex[19];
    std::snprintf(Hex, sizeof(Hex), "0x%016llX",
                  static_cast<unsigned long long>(Got));
    EXPECT_EQ(Got, G.Digest) << G.Subject << " at " << G.Shards
                             << " shards: got " << Hex;
  }
}
