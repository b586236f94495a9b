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
/// materialization chains; trim + arena compaction; the PathCounts decay
/// regression; and a differential test of random operation sequences
/// against a naive model that recomputes every score at every pass. The
/// campaign-level identity check against an independent reference lives
/// in PFuzzerOracleTest.
///
//===----------------------------------------------------------------------===//

#include "core/CandidateStore.h"
#include "core/PFuzzer.h"
#include "subjects/Subject.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
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

namespace {

/// The store's contract without its machinery: a vector of candidates,
/// each with its own copy of its run's branch list. A pass recomputes
/// every score from the features; between passes a pushed candidate
/// keeps its push score. Pops take the maximal (score, earliest push).
class NaiveQueue {
public:
  struct Run {
    std::vector<uint32_t> Branches;
    double AvgStack;
    uint32_t NumParents;
    uint64_t PathHash;
  };
  struct Candidate {
    uint64_t Seq;
    double Score;
    int64_t Base;
    size_t Run;
    uint64_t Hash;
    std::string Bytes;
  };

  NaiveQueue(size_t MaxQueue, const HeuristicOptions &Heur)
      : MaxQueue(MaxQueue), Heur(Heur) {}

  std::vector<Run> Runs;
  std::vector<Candidate> Queue;

  uint32_t pathCount(const PathCountMap &PathCounts, uint64_t Path) const {
    const uint32_t *Count = PathCounts.find(Path);
    return Count ? *Count : 0;
  }

  double runTermOf(const Run &R, const BranchCoverageMap &VBr,
                   const PathCountMap &PathCounts) const {
    uint32_t Fresh = 0;
    for (uint32_t B : R.Branches)
      Fresh += !VBr.test(B);
    return runTerm(Fresh, R.AvgStack, R.NumParents,
                   pathCount(PathCounts, R.PathHash), Heur);
  }

  void push(size_t RunIdx, double Score, int64_t Base, uint64_t Hash,
            std::string Bytes) {
    Queue.push_back({NextSeq++, Score, Base, RunIdx, Hash, std::move(Bytes)});
  }

  static bool before(const Candidate &A, const Candidate &B) {
    return A.Score != B.Score ? A.Score > B.Score : A.Seq < B.Seq;
  }

  const Candidate &top() const {
    return *std::min_element(Queue.begin(), Queue.end(), before);
  }

  Candidate pop() {
    auto It = std::min_element(Queue.begin(), Queue.end(), before);
    Candidate C = *It;
    Queue.erase(It);
    return C;
  }

  bool rescore(const BranchCoverageMap &VBr, const PathCountMap &PathCounts) {
    for (Candidate &C : Queue)
      C.Score = runTermOf(Runs[C.Run], VBr, PathCounts) +
                static_cast<double>(C.Base);
    if (Queue.size() <= MaxQueue)
      return false;
    std::sort(Queue.begin(), Queue.end(), before);
    Queue.resize(MaxQueue / 2);
    return true;
  }

private:
  size_t MaxQueue;
  HeuristicOptions Heur;
  uint64_t NextSeq = 0;
};

/// Drives one random interleaving of store operations against the naive
/// model, comparing every pop and export. Runs and path bumps draw from
/// the first \p NumPaths of five paths. Counts, for the caller's coverage
/// checks, the run slots the store recycled after its first pass.
void runDifferential(uint64_t Seed, size_t NumPaths, QueueStats &Stats,
                     uint64_t &Recycled) {
  constexpr size_t MaxQueue = 32;
  HeuristicOptions Heur;
  CandidateStore Store(MaxQueue, Heur);
  NaiveQueue Model(MaxQueue, Heur);
  BranchCoverageMap VBr;
  PathCountMap PathCounts;
  Rng R(Seed);
  // Few paths, so groups share them; counts start around the cap so
  // bumps land just below and just above it.
  const uint64_t Paths[] = {0x11, 0x22, 0x33, 0x44, 0x55};
  const uint32_t StartCounts[] = {0, 21, 22, 23, 24};
  for (size_t I = 0; I != 5; ++I)
    if (StartCounts[I] > 0)
      PathCounts[Paths[I]] = StartCounts[I];
  const std::string RootBytes = "abcdef";
  uint32_t Root = Store.internRoot(RootBytes, 0x1);
  struct Open {
    uint32_t Run;
    size_t ModelRun;
    uint32_t Requeues = 0;
  };
  std::vector<Open> Pinned;
  std::set<uint32_t> SeenRuns;
  uint64_t NextHash = 0x100;
  std::string Out;

  auto rescore = [&] {
    bool Trimmed = Store.rescore(VBr, PathCounts);
    ASSERT_EQ(Trimmed, Model.rescore(VBr, PathCounts));
    ASSERT_EQ(Store.queueSize(), Model.Queue.size());
  };
  auto openRun = [&] {
    NaiveQueue::Run MR;
    for (uint64_t N = R.below(5); N-- > 0;)
      MR.Branches.push_back(static_cast<uint32_t>(R.below(48)));
    std::sort(MR.Branches.begin(), MR.Branches.end());
    MR.Branches.erase(std::unique(MR.Branches.begin(), MR.Branches.end()),
                      MR.Branches.end());
    MR.AvgStack = static_cast<double>(R.below(7)) / 2;
    MR.NumParents = static_cast<uint32_t>(R.below(4));
    MR.PathHash = Paths[R.below(NumPaths)];
    std::vector<uint32_t> Fresh;
    for (uint32_t B : MR.Branches)
      if (!VBr.test(B))
        Fresh.push_back(B);
    uint32_t Run = Store.makeRun(Fresh, VBr.epoch(), MR.AvgStack,
                                 MR.PathHash, MR.NumParents);
    if (!SeenRuns.insert(Run).second && Store.Stats.Rescores > 0)
      ++Recycled;
    Model.Runs.push_back(MR);
    Pinned.push_back({Run, Model.Runs.size() - 1});
  };
  auto push = [&] {
    if (Pinned.empty())
      openRun();
    Open &O = Pinned[R.below(Pinned.size())];
    const NaiveQueue::Run &MR = Model.Runs[O.ModelRun];
    // The push-time run term, as the campaign computes it: the run's
    // captured count and the current path count.
    uint32_t Captured = 0;
    for (uint32_t B : MR.Branches)
      Captured += !VBr.test(B);
    double Term = runTerm(Captured, MR.AvgStack, MR.NumParents,
                          Model.pathCount(PathCounts, MR.PathHash), Heur);
    uint64_t Hash = NextHash++;
    if (R.chance(1, 4)) {
      // A requeued prefix: the parent byte for byte, penalised by its
      // retry count.
      int64_t Base = candidateTerm(6, 1, /*ParentDelta=*/0, Heur);
      double Score = Term + static_cast<double>(Base) - ++O.Requeues;
      Store.push(O.Run, Root, RootBytes, 6, std::string_view(), Hash, 1, 0,
                 Score);
      Model.push(O.ModelRun, Score, Base, Hash, RootBytes);
    } else {
      size_t SpliceAt = R.below(7);
      std::string Suffix(1 + R.below(2), static_cast<char>('p' + R.below(4)));
      uint32_t RepLen = static_cast<uint32_t>(Suffix.size());
      int64_t Base = candidateTerm(static_cast<uint32_t>(SpliceAt + RepLen),
                                   RepLen, /*ParentDelta=*/1, Heur);
      double Score = Term + static_cast<double>(Base);
      Store.push(O.Run, Root, RootBytes, SpliceAt, Suffix, Hash, RepLen, 1,
                 Score);
      Model.push(O.ModelRun, Score, Base, Hash,
                 RootBytes.substr(0, SpliceAt) + Suffix);
    }
    if (Store.queueSize() > MaxQueue)
      rescore();
  };

  for (int Step = 0; Step != 4000; ++Step) {
    uint64_t Op = R.below(100);
    if (Op < 40) {
      push();
    } else if (Op < 60) {
      if (Store.empty()) {
        ASSERT_TRUE(Model.Queue.empty());
        continue;
      }
      CandidateStore::Popped P = Store.pop(Out);
      NaiveQueue::Candidate Want = Model.pop();
      ASSERT_EQ(P.InputHash, Want.Hash) << "step " << Step;
      ASSERT_EQ(P.Score, Want.Score) << "step " << Step;
      ASSERT_EQ(Out, Want.Bytes);
      Store.release(P.Id);
    } else if (Op < 65) {
      if (Store.empty())
        continue;
      CandidateStore::Exported Top;
      Store.exportTop(Top);
      ASSERT_EQ(Top.Hash, Model.top().Hash) << "step " << Step;
      ASSERT_EQ(Top.Bytes, Model.top().Bytes);
    } else if (Op < 72) {
      openRun();
    } else if (Op < 80) {
      if (Pinned.empty())
        continue;
      size_t I = R.below(Pinned.size());
      Store.releaseRun(Pinned[I].Run);
      Pinned.erase(Pinned.begin() + static_cast<ptrdiff_t>(I));
    } else if (Op < 90) {
      // One execution of a path, reported as the campaign reports it.
      uint64_t Path = Paths[R.below(NumPaths)];
      uint32_t &Count = PathCounts[Path];
      if (pathPenaltyMoves(Count, Heur))
        Store.pathCountMoved(Path);
      ++Count;
    } else if (Op < 97) {
      rescore();
    } else if (Op < 99) {
      uint32_t B = static_cast<uint32_t>(R.below(48));
      VBr.insert(&B, &B + 1);
    } else {
      PathCounts.retainIf([](uint64_t, uint32_t &Count) {
        Count /= 2;
        return Count != 0;
      });
      Store.pathCountsDecayed();
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
  // Drain in order.
  rescore();
  while (!Store.empty()) {
    CandidateStore::Popped P = Store.pop(Out);
    ASSERT_EQ(P.InputHash, Model.pop().Hash);
    Store.release(P.Id);
  }
  for (const Open &O : Pinned)
    Store.releaseRun(O.Run);
  Store.release(Root);
  Stats.accumulate(Store.Stats);
}

} // namespace

TEST(PFuzzerQueueStoreTest, IncrementalRescoreMatchesNaiveModel) {
  // Five paths, and then hot paths: every group on one of two, so each
  // path-index chain links about half the live groups, pops unlink groups
  // from the middle of a chain, and the next bump of that path re-keys
  // whatever the chain still links.
  for (size_t NumPaths : {5, 2}) {
    SCOPED_TRACE(std::to_string(NumPaths) + " paths");
    QueueStats Stats;
    uint64_t Recycled = 0;
    for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
      SCOPED_TRACE("seed " + std::to_string(Seed));
      runDifferential(Seed, NumPaths, Stats, Recycled);
      if (HasFatalFailure())
        return;
    }
    // The interleavings exercised what they exist for: both kinds of
    // pass, re-keyed groups, trims, decays and recycled run slots.
    EXPECT_GT(Stats.Trims, 0u);
    EXPECT_GT(Stats.FullRescores, Stats.Trims);
    EXPECT_LT(Stats.FullRescores, Stats.Rescores);
    EXPECT_GT(Stats.DirtyGroups, 0u);
    EXPECT_GT(Recycled, 0u);
  }
}
