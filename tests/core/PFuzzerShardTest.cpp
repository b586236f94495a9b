//===- tests/core/PFuzzerShardTest.cpp - Sharded campaign engine tests ----===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract of the sharded campaign engine (PFuzzerOptions::Shards):
/// --shards=1 takes the plain sequential code path, so its report is
/// byte-identical to the unsharded engine at any sync interval. For N > 1
/// the search is different by design but deterministic: a fixed (seed, N,
/// interval) reproduces the merged report bit for bit, the budget is spent
/// exactly, the valid-input stream and coverage union are consistent, and
/// the sync ledger balances (published == merged, accepted + rejected ==
/// offered).
///
//===----------------------------------------------------------------------===//

#include "core/PFuzzer.h"
#include "core/ShardSync.h"
#include "subjects/Subject.h"

#include <gtest/gtest.h>

#include <mutex>
#include <set>

using namespace pfuzz;

namespace {

struct ShardRunConfig {
  uint32_t Shards = 1;
  uint32_t SyncInterval = 0; // 0 = engine default
};

FuzzReport fuzzWith(const Subject &S, uint64_t Execs, uint64_t Seed,
                    const ShardRunConfig &Cfg,
                    TelemetrySnapshot *Telemetry = nullptr,
                    std::vector<std::string> *ValidLog = nullptr) {
  PFuzzerOptions Options;
  Options.Shards = Cfg.Shards;
  if (Cfg.SyncInterval != 0)
    Options.ShardSyncInterval = Cfg.SyncInterval;
  Options.TelemetryOut = Telemetry;
  PFuzzer Tool(Options);
  FuzzerOptions Opts;
  Opts.Seed = Seed;
  Opts.MaxExecutions = Execs;
  std::mutex LogMutex;
  if (ValidLog)
    Opts.OnValidInput = [ValidLog, &LogMutex](std::string_view Input) {
      std::lock_guard<std::mutex> Lock(LogMutex);
      ValidLog->emplace_back(Input);
    };
  return Tool.run(S, Opts);
}

void expectIdenticalReports(const FuzzReport &A, const FuzzReport &B) {
  EXPECT_EQ(A.Executions, B.Executions);
  EXPECT_EQ(A.ValidInputs, B.ValidInputs);
  EXPECT_EQ(A.ValidBranches, B.ValidBranches);
  EXPECT_EQ(A.CoverageTimeline, B.CoverageTimeline);
}

} // namespace

TEST(PFuzzerShardTest, SingleShardIdenticalToUnshardedAcrossSubjects) {
  // --shards=1 must reproduce a default-constructed engine on every
  // evaluation subject, at the default and at an odd sync interval (which
  // a single shard never reaches).
  const ShardRunConfig Configs[] = {{1, 0}, {1, 128}};
  for (const Subject *S : evaluationSubjects()) {
    uint64_t Execs = 1500;
    FuzzerOptions Opts;
    Opts.Seed = 7;
    Opts.MaxExecutions = Execs;
    FuzzReport Baseline = PFuzzer().run(*S, Opts);
    for (const ShardRunConfig &Cfg : Configs) {
      SCOPED_TRACE(std::string(S->name()) + " interval " +
                   std::to_string(Cfg.SyncInterval));
      expectIdenticalReports(Baseline, fuzzWith(*S, Execs, 7, Cfg));
    }
  }
}

TEST(PFuzzerShardTest, SingleShardLeavesStatsZeroed) {
  TelemetrySnapshot Telemetry;
  // Stale sink content must be overwritten.
  Telemetry.Sharding.DeltasPublished = 99;
  fuzzWith(jsonSubject(), 500, 1, ShardRunConfig(), &Telemetry);
  const ShardStats &Stats = Telemetry.Sharding;
  EXPECT_EQ(Stats.DeltasPublished, 0u);
  EXPECT_EQ(Stats.SyncPoints, 0u);
  EXPECT_EQ(Stats.MigrationsOffered, 0u);
}

TEST(PFuzzerShardTest, ShardedRunIsReproducible) {
  ShardRunConfig Cfg;
  Cfg.Shards = 3;
  Cfg.SyncInterval = 200;
  for (const Subject *S : {&jsonSubject(), &mjsSubject()}) {
    SCOPED_TRACE(std::string(S->name()));
    FuzzReport First = fuzzWith(*S, 3000, 11, Cfg);
    FuzzReport Second = fuzzWith(*S, 3000, 11, Cfg);
    expectIdenticalReports(First, Second);
  }
}

TEST(PFuzzerShardTest, ShardedBudgetIsSpentExactly) {
  // Budgets that do not divide evenly by the shard count must still sum
  // to exactly the requested total.
  ShardRunConfig Cfg;
  Cfg.Shards = 3;
  for (uint64_t Execs : {999u, 1000u, 1001u}) {
    SCOPED_TRACE(std::to_string(Execs));
    FuzzReport R = fuzzWith(jsonSubject(), Execs, 2, Cfg);
    EXPECT_EQ(R.Executions, Execs);
    // The merged timeline ends at the full budget with the union
    // coverage.
    ASSERT_FALSE(R.CoverageTimeline.empty());
    EXPECT_EQ(R.CoverageTimeline.back().first, Execs);
    EXPECT_EQ(R.CoverageTimeline.back().second, R.ValidBranches.size());
  }
}

TEST(PFuzzerShardTest, ShardedLedgerBalances) {
  TelemetrySnapshot Telemetry;
  ShardRunConfig Cfg;
  Cfg.Shards = 4;
  Cfg.SyncInterval = 100;
  FuzzReport R = fuzzWith(jsonSubject(), 4000, 3, Cfg, &Telemetry);
  const ShardStats &Stats = Telemetry.Sharding;
  EXPECT_EQ(R.Executions, 4000u);
  // Every published packet consumed exactly once; every offered
  // candidate either accepted or rejected.
  EXPECT_EQ(Stats.DeltasPublished, Stats.DeltasMerged);
  EXPECT_EQ(Stats.MigrationsAccepted + Stats.MigrationsRejected,
            Stats.MigrationsOffered);
  // 4 shards x 1000 execs at interval 100: ~10 boundaries each plus the
  // Final packet (one fewer when a shard's budget ends exactly on a
  // boundary, whose packet then rides along as the Final).
  EXPECT_GE(Stats.SyncPoints, 4u * 10);
  EXPECT_GT(Stats.DeltasPublished, 0u);
}

TEST(PFuzzerShardTest, ShardedValidInputsAreAccepted) {
  // Every input in the merged report must actually be accepted by the
  // subject — migration and frontier merging must never smuggle a
  // rejected input into the output stream.
  ShardRunConfig Cfg;
  Cfg.Shards = 2;
  std::vector<std::string> ValidLog;
  FuzzReport R = fuzzWith(jsonSubject(), 3000, 5, Cfg, nullptr, &ValidLog);
  for (const std::string &Input : R.ValidInputs)
    EXPECT_EQ(jsonSubject().execute(Input).ExitCode, 0) << Input;
  // The callback fires on every accepted execution (novel or not), so
  // its stream is a superset of the merged report's novelty-filtered
  // inputs.
  std::set<std::string> Seen(ValidLog.begin(), ValidLog.end());
  EXPECT_GE(ValidLog.size(), R.ValidInputs.size());
  for (const std::string &Input : R.ValidInputs)
    EXPECT_TRUE(Seen.count(Input)) << Input;
}
