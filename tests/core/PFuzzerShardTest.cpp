//===- tests/core/PFuzzerShardTest.cpp - Sharded campaign tests -----------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract of sharded campaigns (PFuzzerOptions::Shards): --shards=1
/// is the plain campaign byte for byte. For N > 1 the report is the
/// shard-order reduce of N independent unsharded campaigns, shard I at
/// seed shardSeed(Seed, I) with its share of the budget: the union of
/// their covered branches, their valid inputs concatenated, and their
/// timelines offset end to end. It is therefore reproducible, spends the
/// budget exactly and reports only accepted inputs.
///
//===----------------------------------------------------------------------===//

#include "core/PFuzzer.h"
#include "subjects/Subject.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>

using namespace pfuzz;

namespace {

FuzzReport fuzzWith(const Subject &S, uint64_t Execs, uint64_t Seed,
                    uint32_t Shards,
                    std::vector<std::string> *ValidLog = nullptr) {
  PFuzzerOptions Options;
  Options.Shards = Shards;
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

/// Folds \p Shard, the next shard's report, into \p Merged: executions
/// add up, valid inputs append, branches unite, and the timeline
/// continues at the executions merged so far with its coverage held
/// monotone.
void appendShard(FuzzReport &Merged, const FuzzReport &Shard) {
  uint64_t Offset = Merged.Executions;
  Merged.Executions += Shard.Executions;
  Merged.ValidInputs.insert(Merged.ValidInputs.end(),
                            Shard.ValidInputs.begin(),
                            Shard.ValidInputs.end());
  std::vector<uint32_t> Branches = Shard.ValidBranches.values();
  Merged.ValidBranches.insert(Branches.begin(), Branches.end());
  for (auto [Execs, Covered] : Shard.CoverageTimeline) {
    std::pair<uint64_t, uint64_t> Sample(Offset + Execs, Covered);
    if (!Merged.CoverageTimeline.empty())
      Sample.second =
          std::max(Sample.second, Merged.CoverageTimeline.back().second);
    if (Merged.CoverageTimeline.empty() ||
        Merged.CoverageTimeline.back() != Sample)
      Merged.CoverageTimeline.push_back(Sample);
  }
}

} // namespace

TEST(PFuzzerShardTest, SingleShardIdenticalToUnshardedAcrossSubjects) {
  // --shards=1 must reproduce a default-constructed engine on every
  // evaluation subject.
  for (const Subject *S : evaluationSubjects()) {
    SCOPED_TRACE(std::string(S->name()));
    FuzzerOptions Opts;
    Opts.Seed = 7;
    Opts.MaxExecutions = 1500;
    expectIdenticalReports(PFuzzer().run(*S, Opts),
                           fuzzWith(*S, 1500, 7, /*Shards=*/1));
  }
}

TEST(PFuzzerShardTest, ShardedReportIsUnionOfIndependentCampaigns) {
  // Budgets that do not divide by the shard count: the first
  // Execs % Shards shards run one execution more. Each shard runs well
  // past a thousand executions, so any exchange between the shards would
  // have time to change what they find.
  struct Config {
    uint32_t Shards;
    uint64_t Execs;
  };
  for (const Subject *S : {&jsonSubject(), &mjsSubject()}) {
    for (Config C : {Config{3, 6001}, Config{4, 8002}}) {
      SCOPED_TRACE(std::string(S->name()) + " shards=" +
                   std::to_string(C.Shards));
      constexpr uint64_t Seed = 9;
      FuzzReport Want;
      for (uint32_t I = 0; I != C.Shards; ++I) {
        uint64_t Budget = C.Execs / C.Shards + (I < C.Execs % C.Shards);
        appendShard(Want,
                    fuzzWith(*S, Budget, shardSeed(Seed, I), /*Shards=*/1));
      }
      std::pair<uint64_t, uint64_t> Final(Want.Executions,
                                          Want.ValidBranches.size());
      if (Want.CoverageTimeline.back() != Final)
        Want.CoverageTimeline.push_back(Final);
      expectIdenticalReports(fuzzWith(*S, C.Execs, Seed, C.Shards), Want);
    }
  }
}

TEST(PFuzzerShardTest, ShardedRunIsReproducible) {
  for (const Subject *S : {&jsonSubject(), &mjsSubject()}) {
    SCOPED_TRACE(std::string(S->name()));
    FuzzReport First = fuzzWith(*S, 3000, 11, /*Shards=*/3);
    FuzzReport Second = fuzzWith(*S, 3000, 11, /*Shards=*/3);
    expectIdenticalReports(First, Second);
  }
}

TEST(PFuzzerShardTest, ShardedBudgetIsSpentExactly) {
  // Budgets that do not divide evenly by the shard count must still sum
  // to exactly the requested total.
  for (uint64_t Execs : {999u, 1000u, 1001u}) {
    SCOPED_TRACE(std::to_string(Execs));
    FuzzReport R = fuzzWith(jsonSubject(), Execs, 2, /*Shards=*/3);
    EXPECT_EQ(R.Executions, Execs);
    // The merged timeline ends at the full budget with the union
    // coverage.
    ASSERT_FALSE(R.CoverageTimeline.empty());
    EXPECT_EQ(R.CoverageTimeline.back().first, Execs);
    EXPECT_EQ(R.CoverageTimeline.back().second, R.ValidBranches.size());
  }
}

TEST(PFuzzerShardTest, ShardedValidInputsAreAccepted) {
  // Every input in the merged report must actually be accepted by the
  // subject.
  std::vector<std::string> ValidLog;
  FuzzReport R = fuzzWith(jsonSubject(), 3000, 5, /*Shards=*/2, &ValidLog);
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
