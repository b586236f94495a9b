//===- tests/core/PFuzzerQueueStoreTest.cpp - Compact candidate store -----===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract of the compact candidate store (core/CandidateStore.h):
/// its pop order — highest score first, the earlier push first among
/// equal scores — through pushes, rescores, trims and the shard export;
/// materialization chains; trim + arena compaction; and the PathCounts
/// decay regression. The campaign-level identity check against an
/// independent reference lives in PFuzzerOracleTest.
///
//===----------------------------------------------------------------------===//

#include "core/CandidateStore.h"
#include "core/PFuzzer.h"
#include "subjects/Subject.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace pfuzz;

namespace {

FuzzReport fuzzQueue(const Subject &S, uint64_t Execs, size_t MaxQueue,
                     QueueStats &Stats) {
  TelemetrySnapshot Telemetry;
  PFuzzerOptions Options;
  Options.MaxQueue = MaxQueue;
  Options.TelemetryOut = &Telemetry;
  FuzzerOptions Opts;
  Opts.Seed = 1;
  Opts.MaxExecutions = Execs;
  FuzzReport Report = PFuzzer(Options).run(S, Opts);
  Stats = Telemetry.Queue;
  return Report;
}

/// A store with one root record and a branch-free run group: a push of
/// a single-byte suffix \p Tag scores 2 * ReplacementLen - 2 after any
/// rescore (0 branches, length 1, replacement, one parent link).
struct TieFixture {
  explicit TieFixture(size_t MaxQueue = 100)
      : Store(MaxQueue, HeuristicOptions()) {}

  CandidateStore Store;
  BranchCoverageMap VBr;
  PathCountMap PathCounts;
  uint32_t Root = Store.internRoot("", 0x1);
  std::vector<uint32_t> NoBranches;
  uint32_t Run = Store.makeRun(NoBranches, 0, 0.0, 0, 0);

  void push(char Tag, uint32_t ReplacementLen, double Score) {
    Store.push(Run, Root, "", 0, std::string_view(&Tag, 1),
               static_cast<unsigned char>(Tag), ReplacementLen,
               /*ParentDelta=*/1, Score);
  }

  /// Pops everything, returning the tags in pop order.
  std::string drain() {
    std::string Order, Out;
    while (!Store.empty()) {
      CandidateStore::Popped P = Store.pop(Out);
      Order += Out;
      Store.release(P.Id);
    }
    return Order;
  }
};

} // namespace

TEST(PFuzzerQueueStoreTest, TrimPressureConfigActuallyTrims) {
  // Guard against the oracle sweep silently losing its trim coverage:
  // the small-cap config must overflow the queue and drop candidates.
  QueueStats Stats;
  fuzzQueue(jsonSubject(), 3000, /*MaxQueue=*/256, Stats);
  EXPECT_GT(Stats.Trims, 0u);
  EXPECT_GT(Stats.TrimmedCandidates, 0u);
  EXPECT_GT(Stats.PeakArenaBytes, 0u);
}

TEST(PFuzzerQueueStoreTest, EqualScoresPopInPushOrder) {
  TieFixture F;
  for (char Tag : std::string("abcdefghij"))
    F.push(Tag, 1, 3.0);
  F.push('z', 1, 4.0);
  F.push('y', 1, 2.5);
  EXPECT_EQ(F.drain(), "zabcdefghijy");
}

TEST(PFuzzerQueueStoreTest, RescoreTiesPopInPushOrder) {
  // Push scores in reverse push order; the rescore makes them equal
  // (every candidate scores 2 * 1 - 2 = 0), so push order decides.
  TieFixture F;
  std::string Tags = "abcdefgh";
  for (size_t I = 0; I != Tags.size(); ++I)
    F.push(Tags[I], 1, static_cast<double>(I));
  EXPECT_FALSE(F.Store.rescore(F.VBr, F.PathCounts));
  EXPECT_EQ(F.drain(), Tags);
}

TEST(PFuzzerQueueStoreTest, TrimAmongTiesKeepsEarliestPushes) {
  // Seven candidates that tie after the rescore, pushed with descending
  // push scores; a cap of 6 keeps the first 3 in pop order.
  TieFixture F(/*MaxQueue=*/6);
  std::string Tags = "abcdefg";
  for (size_t I = 0; I != Tags.size(); ++I)
    F.push(Tags[I], 1, -static_cast<double>(I));
  EXPECT_TRUE(F.Store.rescore(F.VBr, F.PathCounts));
  EXPECT_EQ(F.drain(), "abc");
}

TEST(PFuzzerQueueStoreTest, ExportTopIsTheNextPop) {
  TieFixture F;
  std::string Tags = "pqrstuvw";
  for (size_t I = 0; I != Tags.size(); ++I)
    F.push(Tags[I], 1 + I % 3, static_cast<double>(I % 2));
  EXPECT_FALSE(F.Store.rescore(F.VBr, F.PathCounts));
  CandidateStore::Exported Top;
  std::string Out;
  while (!F.Store.empty()) {
    F.Store.exportTop(Top);
    CandidateStore::Popped P = F.Store.pop(Out);
    EXPECT_EQ(Top.Bytes, Out);
    EXPECT_EQ(Top.Hash, P.InputHash);
    EXPECT_EQ(Top.ReplacementLen, P.ReplacementLen);
    EXPECT_EQ(Top.NumParents, P.NumParents);
    F.Store.release(P.Id);
  }
}

TEST(PFuzzerQueueStoreTest, LongReplacementLengthRoundTrips) {
  // Replacements longer than 65,535 bytes (MaxInputLen allows 2^20).
  TieFixture F;
  F.push('x', 70000, 0.0);
  CandidateStore::Exported Top;
  F.Store.exportTop(Top);
  EXPECT_EQ(Top.ReplacementLen, 70000u);
  std::string Out;
  CandidateStore::Popped P = F.Store.pop(Out);
  EXPECT_EQ(P.ReplacementLen, 70000u);
  F.Store.release(P.Id);
}

TEST(PFuzzerQueueStoreTest, PathTableDecaysInsteadOfGrowingUnbounded) {
  // Regression for the unbounded PathCounts growth: with a small cap the
  // campaign must decay the table (halve counts, drop zeros) instead of
  // letting it grow past the cap, and still complete its budget.
  constexpr size_t Cap = 32;
  QueueStats Stats;
  FuzzReport Report = fuzzQueue(jsonSubject(), 3000, Cap, Stats);
  EXPECT_EQ(Report.Executions, 3000u);
  EXPECT_GT(Stats.PathDecays, 0u);
  // The table can only exceed the cap by the insert that triggers each
  // decay; well under 2x is the "bounded" part of the contract.
  EXPECT_LE(Stats.PeakPathTable, 2 * Cap);
}

TEST(PFuzzerQueueStoreTest, MaterializesParentChains) {
  // Direct store exercise: a substitution chain three records deep, each
  // splicing below its parent, must reassemble exactly.
  CandidateStore Store(/*MaxQueue=*/100, HeuristicOptions());
  uint32_t Root = Store.internRoot("abc", 0x1);
  std::vector<uint32_t> Branches{10, 20, 30};
  uint32_t Run = Store.makeRun(Branches, 0, 1.5, 0x99, 0);
  Store.push(Run, Root, "abc", 2, "xy", 0x2, 2, 1, 5.0);
  std::string Out;
  CandidateStore::Popped P = Store.pop(Out);
  EXPECT_EQ(Out, "abxy");
  EXPECT_EQ(P.Score, 5.0);
  EXPECT_EQ(P.InputHash, 0x2u);
  EXPECT_EQ(P.NumParents, 1u);
  EXPECT_EQ(P.ReplacementLen, 2u);
  EXPECT_EQ(P.NewBranchCount, 3u);
  // The popped record (still pinned) becomes the next parent.
  uint32_t Run2 = Store.makeRun(Branches, 0, 1.5, 0x99, P.NumParents);
  Store.push(Run2, P.Id, Out, 3, "z", 0x3, 1, 1, 6.0);
  // A requeue-style record: empty suffix spliced at the full length is
  // its parent byte for byte at zero stored bytes.
  Store.push(Run2, P.Id, Out, 4, std::string_view(), 0x4, 1, 0, 4.0);
  CandidateStore::Popped Child = Store.pop(Out);
  EXPECT_EQ(Out, "abxz");
  EXPECT_EQ(Child.NumParents, 2u);
  CandidateStore::Popped Requeue = Store.pop(Out);
  EXPECT_EQ(Out, "abxy");
  EXPECT_EQ(Requeue.NumParents, 1u);
  EXPECT_TRUE(Store.empty());
  Store.releaseRun(Run);
  Store.releaseRun(Run2);
  Store.release(Requeue.Id);
  Store.release(Child.Id);
  Store.release(P.Id);
  Store.release(Root);
}

TEST(PFuzzerQueueStoreTest, TrimReleasesRecordsAndCompactsArena) {
  // Overflow a tiny queue with large-suffix candidates: the rescore trim
  // must drop the worst-scored half, and with most of the arena then
  // dead, compaction must rebuild it — after which the survivors must
  // still materialize byte for byte (offsets patched correctly).
  CandidateStore Store(/*MaxQueue=*/4, HeuristicOptions());
  BranchCoverageMap VBr;
  PathCountMap PathCounts;
  uint32_t Root = Store.internRoot("", 0x1);
  std::vector<uint32_t> NoBranches;
  uint32_t Run = Store.makeRun(NoBranches, 0, 0.0, 0, 0);
  for (uint32_t I = 0; I != 12; ++I) {
    std::string Suffix(600, static_cast<char>('a' + I));
    // Score recomputation at rescore: 0 new branches - 600 length +
    // 2 * ReplacementLen - 0 stack - 1 parent - 0 path = 2 * I - 601,
    // strictly increasing in I, so the trim keeps the highest I's.
    Store.push(Run, Root, "", 0, Suffix, 0x100 + I, /*ReplacementLen=*/I,
               /*ParentDelta=*/1, 2.0 * I - 601);
  }
  ASSERT_EQ(Store.queueSize(), 12u);
  bool Trimmed = Store.rescore(VBr, PathCounts);
  EXPECT_TRUE(Trimmed);
  EXPECT_EQ(Store.queueSize(), 2u);
  EXPECT_EQ(Store.Stats.Trims, 1u);
  EXPECT_EQ(Store.Stats.TrimmedCandidates, 10u);
  EXPECT_EQ(Store.Stats.Compactions, 1u);
  EXPECT_GT(Store.Stats.ArenaBytesReclaimed, 5000u);
  std::string Out;
  CandidateStore::Popped First = Store.pop(Out);
  EXPECT_EQ(Out, std::string(600, 'a' + 11));
  EXPECT_EQ(First.Score, 2.0 * 11 - 601);
  Store.pop(Out);
  EXPECT_EQ(Out, std::string(600, 'a' + 10));
  EXPECT_TRUE(Store.empty());
}

TEST(PFuzzerQueueStoreTest, RescoredScoresEqualHeuristicOfFeatures) {
  // The group-factored rescore against the one-candidate formula: two run
  // groups with non-zero path counts (one past the 24 cap), a
  // half-integer stack depth, branches partly covered since the push,
  // and a requeue-shaped record (empty suffix, ParentDelta 0). Every
  // score popped after rescore must equal heuristicScore of that
  // candidate's features exactly.
  HeuristicOptions Heur;
  CandidateStore Store(/*MaxQueue=*/100, Heur);
  BranchCoverageMap VBr;
  PathCountMap PathCounts;
  PathCounts[0xA] = 3;
  PathCounts[0xB] = 40;
  uint32_t Root = Store.internRoot("{\"k\":", 0x1);
  std::vector<uint32_t> BranchesA{2, 4, 6, 8};
  std::vector<uint32_t> BranchesB{10, 12};
  uint32_t RunA = Store.makeRun(BranchesA, VBr.epoch(), 2.5, 0xA, 3);
  uint32_t RunB = Store.makeRun(BranchesB, VBr.epoch(), 7.0, 0xB, 1);
  // Push scores are placeholders; rescore replaces every one of them.
  Store.push(RunA, Root, "{\"k\":", 5, "true", 0x2, 4, 1, 0.0);
  Store.push(RunA, Root, "{\"k\":", 5, "1", 0x3, 1, 1, 0.0);
  Store.push(RunA, Root, "{\"k\":", 5, std::string_view(), 0x4, 1, 0, 0.0);
  Store.push(RunB, Root, "{\"k\":", 3, "null", 0x5, 4, 1, 0.0);
  Store.releaseRun(RunA);
  Store.releaseRun(RunB);
  std::vector<uint32_t> Covered{4, 10};
  VBr.insert(Covered.begin(), Covered.end());
  EXPECT_FALSE(Store.rescore(VBr, PathCounts));

  struct Want {
    uint64_t Hash;
    HeuristicInputs In;
  };
  // Branches after filtering: A keeps {2, 6, 8}, B keeps {12}.
  std::vector<Want> Wants = {
      {0x2, {3, 9, 4, 2.5, 4, 3}},
      {0x3, {3, 6, 1, 2.5, 4, 3}},
      {0x4, {3, 5, 1, 2.5, 3, 3}},
      {0x5, {1, 7, 4, 7.0, 2, 40}},
  };
  std::string Out;
  for (size_t I = 0; I != Wants.size(); ++I) {
    CandidateStore::Popped P = Store.pop(Out);
    bool Found = false;
    for (const Want &W : Wants) {
      if (W.Hash != P.InputHash)
        continue;
      Found = true;
      EXPECT_EQ(Out.size(), W.In.InputLen);
      EXPECT_EQ(P.NumParents, W.In.NumParents);
      EXPECT_EQ(P.Score, heuristicScore(W.In, Heur)) << "hash " << W.Hash;
    }
    EXPECT_TRUE(Found);
    Store.release(P.Id);
  }
  EXPECT_TRUE(Store.empty());
  Store.release(Root);
}
