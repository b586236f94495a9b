//===- tests/core/PFuzzerQueueStoreTest.cpp - Compact candidate store -----===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract of the compact candidate store (core/CandidateStore.h):
/// representation only, never behavior. A campaign run on compact
/// prefix-suffix records must produce a FuzzReport byte-identical to the
/// same campaign run on the string-backed reference queue — on every
/// evaluation subject, with and without queue-trim pressure. Plus direct
/// store unit tests (materialization chains, trim + arena compaction) and
/// the PathCounts decay regression.
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

struct QueueConfig {
  const char *Name;
  size_t MaxQueue = 100000;
  HeuristicOptions Heur = HeuristicOptions();
};

/// The ablation bench's heuristic configs (bench/ablation_heuristic.cpp):
/// each term off on its own, then every term off at once.
HeuristicOptions ablated(unsigned OffMask) {
  HeuristicOptions H;
  H.LengthPenalty = !(OffMask & 1);
  H.ReplacementBonus = !(OffMask & 2);
  H.StackSizeTerm = !(OffMask & 4);
  H.ParentCountTerm = !(OffMask & 8);
  H.PathNovelty = !(OffMask & 16);
  return H;
}

FuzzReport fuzzQueue(const Subject &S, uint64_t Execs, uint64_t Seed,
                     const QueueConfig &C, bool Reference,
                     QueueStats *Stats = nullptr) {
  TelemetrySnapshot Telemetry;
  PFuzzerOptions Options;
  Options.MaxQueue = C.MaxQueue;
  Options.Heur = C.Heur;
  Options.ReferenceQueue = Reference;
  Options.TelemetryOut = &Telemetry;
  PFuzzer Tool(Options);
  FuzzerOptions Opts;
  Opts.Seed = Seed;
  Opts.MaxExecutions = Execs;
  FuzzReport Report = Tool.run(S, Opts);
  if (Stats)
    *Stats = Telemetry.Queue;
  return Report;
}

void expectIdenticalReports(const FuzzReport &A, const FuzzReport &B) {
  EXPECT_EQ(A.Executions, B.Executions);
  EXPECT_EQ(A.ValidInputs, B.ValidInputs);
  EXPECT_EQ(A.ValidBranches, B.ValidBranches);
  EXPECT_EQ(A.CoverageTimeline, B.CoverageTimeline);
}

} // namespace

TEST(PFuzzerQueueStoreTest, ReportIdenticalToReferenceQueueAcrossConfigs) {
  // The identity sweep: compact records against the by-value reference
  // queue, on all five evaluation subjects, at the default cap, at caps
  // small enough to force trims, and under every heuristic ablation (each
  // switch changes which terms the group-factored rescore sums).
  const QueueConfig Configs[] = {
      {"default"},
      {"trim-256", /*MaxQueue=*/256},
      {"trim-512", /*MaxQueue=*/512},
      {"no-length", 100000, ablated(1)},
      {"no-replacement", 100000, ablated(2)},
      {"no-stack", 100000, ablated(4)},
      {"no-parents", 100000, ablated(8)},
      {"no-path-novelty", 100000, ablated(16)},
      {"coverage-only", 100000, ablated(31)},
  };
  for (const Subject *S : evaluationSubjects()) {
    uint64_t Execs = S == &jsonSubject() ? 3000 : 1500;
    for (const QueueConfig &C : Configs) {
      SCOPED_TRACE(std::string(S->name()) + " config " + C.Name);
      FuzzReport Reference = fuzzQueue(*S, Execs, 1, C, /*Reference=*/true);
      FuzzReport Compact = fuzzQueue(*S, Execs, 1, C, /*Reference=*/false);
      expectIdenticalReports(Reference, Compact);
    }
  }
}

TEST(PFuzzerQueueStoreTest, TrimPressureConfigActuallyTrims) {
  // Guard against the sweep silently losing its trim coverage: the
  // small-cap config must overflow the queue and drop candidates.
  QueueConfig C{"trim-256", /*MaxQueue=*/256};
  QueueStats Stats;
  fuzzQueue(jsonSubject(), 3000, 1, C, /*Reference=*/false, &Stats);
  EXPECT_GT(Stats.Trims, 0u);
  EXPECT_GT(Stats.TrimmedCandidates, 0u);
}

TEST(PFuzzerQueueStoreTest, CompactStoreUsesLessQueueMemory) {
  // The structural claim behind the tentpole, asserted on sampled peaks
  // (the 2x Release-bench gate lives in CI; here only the direction, so
  // Debug and sanitizer builds stay robust).
  QueueConfig C{"default"};
  QueueStats Reference, Compact;
  fuzzQueue(jsonSubject(), 3000, 1, C, /*Reference=*/true, &Reference);
  fuzzQueue(jsonSubject(), 3000, 1, C, /*Reference=*/false, &Compact);
  ASSERT_GT(Reference.PeakBytes, 0u);
  ASSERT_GT(Compact.PeakBytes, 0u);
  EXPECT_LT(Compact.PeakBytes, Reference.PeakBytes);
  EXPECT_EQ(Compact.Pushes, Reference.Pushes);
  EXPECT_EQ(Compact.Rescores, Reference.Rescores);
  EXPECT_GT(Compact.PeakArenaBytes, 0u);
  EXPECT_EQ(Reference.PeakArenaBytes, 0u); // strings, not arena slices
}

TEST(PFuzzerQueueStoreTest, PathTableDecaysInsteadOfGrowingUnbounded) {
  // Regression for the unbounded PathCounts growth: with a small cap the
  // campaign must decay the table (halve counts, drop zeros) instead of
  // letting it grow past the cap, and still complete its budget.
  QueueConfig C{"tiny-cap", /*MaxQueue=*/32};
  QueueStats Stats;
  FuzzReport Report =
      fuzzQueue(jsonSubject(), 3000, 1, C, /*Reference=*/false, &Stats);
  EXPECT_EQ(Report.Executions, 3000u);
  EXPECT_GT(Stats.PathDecays, 0u);
  // The table can only exceed the cap by the insert that triggers each
  // decay; well under 2x is the "bounded" part of the contract.
  EXPECT_LE(Stats.PeakPathTable, 2 * C.MaxQueue);
}

TEST(PFuzzerQueueStoreTest, MaterializesParentChains) {
  // Direct store exercise: a substitution chain three records deep, each
  // splicing below its parent, must reassemble exactly.
  CandidateStore Store(/*Reference=*/false, /*MaxQueue=*/100,
                       HeuristicOptions());
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
  CandidateStore Store(/*Reference=*/false, /*MaxQueue=*/4,
                       HeuristicOptions());
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
  CandidateStore Store(/*Reference=*/false, /*MaxQueue=*/100, Heur);
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
