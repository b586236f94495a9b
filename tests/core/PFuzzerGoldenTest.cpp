//===- tests/core/PFuzzerGoldenTest.cpp - Pinned campaign reports ---------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the reports of small pFuzzer campaigns to recorded digests. A
/// change to the engine that is meant to leave the search alone (a
/// refactor, a deleted throughput layer) must keep every digest; a change
/// that alters the search on purpose updates them here and says why.
/// Covered: the five evaluation subjects at a fixed seed and a
/// 3,000-execution budget, unsharded and at 4 shards. Two more rows run
/// json and mjs at a 64-candidate cap, where the path-count table decays
/// and the queue trims; they pin the hash-keyed side tables (dedup set,
/// path counts, requeue counts) that the default cap leaves untouched by
/// decay. The digests were last recorded when the pop order became total
/// (highest score, then earliest push; see core/CandidateStore.h), in
/// Debug, RelWithDebInfo and Release builds, which agree.
///
/// The 4-shard rows kept their digests when sharding became N independent
/// campaigns merged in shard order. The shards used to trade coverage and
/// candidates every 512 executions, merging a peer's packet one interval
/// late. At 750 executions per shard no shard merged anything before its
/// budget ended, so these rows never saw an exchange. PFuzzerShardTest
/// pins longer sharded campaigns, where an exchange would show.
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

struct Golden {
  const char *Subject;
  uint32_t Shards;
  uint64_t Digest;
  size_t MaxQueue = PFuzzerOptions().MaxQueue;
};

uint64_t campaignDigest(const Subject &S, const Golden &G,
                        QueueStats &Stats) {
  TelemetrySnapshot Telemetry;
  PFuzzerOptions Options;
  Options.Shards = G.Shards;
  Options.MaxQueue = G.MaxQueue;
  Options.TelemetryOut = &Telemetry;
  PFuzzer Tool(Options);
  FuzzerOptions Opts;
  Opts.Seed = GoldenSeed;
  Opts.MaxExecutions = GoldenExecs;
  uint64_t Digest = reportDigest(Tool.run(S, Opts));
  Stats = Telemetry.Queue;
  return Digest;
}

/// The cap of the decay rows.
constexpr size_t SmallCap = 64;

const Golden Goldens[] = {
    {"ini", 1, 0x9633F58EAEDF6394ULL},   {"csv", 1, 0xF452DB034403764DULL},
    {"json", 1, 0x38223A1AE1F76CF9ULL},  {"tinyc", 1, 0x06A665DFAEC161FDULL},
    {"mjs", 1, 0xA6E675E48605E6C8ULL},   {"ini", 4, 0xBB029783CA4AB9B1ULL},
    {"csv", 4, 0x69820E0F05D5B598ULL},   {"json", 4, 0x2FE915F42CCCD79DULL},
    {"tinyc", 4, 0x42F8FC1F38E8A4DDULL}, {"mjs", 4, 0xC67128A8CC67B826ULL},
    {"json", 1, 0xE09E49FDE60D63AEULL, SmallCap},
    {"mjs", 1, 0x8FFD5CFDE6A0438FULL, SmallCap},
};

} // namespace

TEST(PFuzzerGoldenTest, ReportsMatchRecordedDigests) {
  for (const Golden &G : Goldens) {
    const Subject *S = findSubject(G.Subject);
    ASSERT_NE(S, nullptr) << G.Subject;
    QueueStats Stats;
    uint64_t Got = campaignDigest(*S, G, Stats);
    char Hex[19];
    std::snprintf(Hex, sizeof(Hex), "0x%016llX",
                  static_cast<unsigned long long>(Got));
    EXPECT_EQ(Got, G.Digest) << G.Subject << " at " << G.Shards
                             << " shards, cap " << G.MaxQueue << ": got "
                             << Hex;
    // A decay row that stopped decaying would pin nothing about decay.
    if (G.MaxQueue == SmallCap) {
      EXPECT_GT(Stats.PathDecays, 0u) << G.Subject;
      EXPECT_GT(Stats.Trims, 0u) << G.Subject;
    }
  }
}
