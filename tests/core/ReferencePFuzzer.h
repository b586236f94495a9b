//===- tests/core/ReferencePFuzzer.h - Reference Algorithm 1 ----*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small reference pFuzzer, written from the paper's Algorithm 1 and
/// the Section 3 heuristic plus the documented extensions in
/// docs/ALGORITHM.md (prefix requeues, the periodic re-rank, the queue
/// cap and path-count decay). It is the identity oracle of the campaign
/// engine in core/PFuzzer.cpp and shares none of its data structures:
///
///   - the queue is an ordered set of whole candidates — (score, push
///     sequence, input bytes, the parent run's own branch list) — popped
///     from the front: highest score first, earlier push first;
///   - a rescore recomputes every candidate's score from its features
///     with heuristicScore, filtering its own branch list;
///   - vBr, the dedup set, the path counts and the requeue counts are
///     plain std:: containers.
///
/// What it does use from the engine: Subject::execute, the RunResult
/// accessors, Rng and heuristicScore.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_TESTS_CORE_REFERENCEPFUZZER_H
#define PFUZZ_TESTS_CORE_REFERENCEPFUZZER_H

#include "core/PFuzzer.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace pfuzz {

class ReferencePFuzzer {
public:
  /// Reads Config.Heur and Config.MaxQueue; the reference runs
  /// unsharded.
  ReferencePFuzzer(const Subject &S, const FuzzerOptions &Opts,
                   const PFuzzerOptions &Config)
      : S(S), Opts(Opts), Config(Config), R(Opts.Seed) {}

  FuzzReport run() {
    std::string Input(1, randomChar()); // line 4
    uint32_t NumParents = 0;
    uint64_t SampleEvery = std::max<uint64_t>(1, Opts.MaxExecutions / 256);
    uint64_t LastRescore = 0;
    RunResult RR, RE;
    while (Report.Executions < Opts.MaxExecutions) {
      bool Valid = runCheck(Input, RR); // line 7
      Run Bare = stats(RR);
      if (Valid) {
        addInputs(Input, RR, Bare, NumParents); // line 44
      } else {
        addInputs(Input, RR, Bare, NumParents);
        if (Report.Executions >= Opts.MaxExecutions)
          break;
        std::string EInp = Input + randomChar(); // line 15
        runCheck(EInp, RE);                      // line 9
        addInputs(EInp, RE, stats(RE), NumParents); // line 11
      }
      // The prefix requeue: a run that read past the end gets its prefix
      // back for another random extension, at most 12 times.
      if (RR.hitEof() && Input.size() < Opts.MaxInputLen) {
        uint32_t &Count = RequeueCounts[fnv(Input)];
        if (Count < 12) {
          ++Count;
          // The retry penalty applies to the push score only; a rescore
          // recomputes the plain heuristic.
          push({0, 0, Input, Bare.NewBranches, Bare.AvgStack, NumParents,
                /*ReplacementLen=*/1, Bare.PathHash},
               -static_cast<double>(Count));
        }
      }
      if (Report.Executions / SampleEvery !=
          (Report.Executions + 1) / SampleEvery)
        sampleTimeline();
      // The periodic re-rank refreshes path-count terms.
      if (Report.Executions >= LastRescore + 384) {
        LastRescore = Report.Executions;
        rescore();
      }
      if (Queue.empty()) {
        // Search exhausted: restart from a fresh random character.
        Input.assign(1, randomChar());
        NumParents = 0;
        continue;
      }
      // Line 14: the first candidate in pop order.
      auto Best = Queue.extract(Queue.begin());
      Input = std::move(Best.value().Input);
      NumParents = Best.value().NumParents;
    }
    sampleTimeline();
    Report.ValidBranches.insert(VBr.begin(), VBr.end());
    return std::move(Report);
  }

  /// Path-table decays and queue trims performed so far.
  uint64_t PathDecays = 0;
  uint64_t Trims = 0;

private:
  /// A queued candidate: its bytes and the features of the run that
  /// produced it.
  struct Candidate {
    double Score;
    uint64_t Seq;
    std::string Input;
    std::vector<uint32_t> NewBranches;
    double AvgStack;
    uint32_t NumParents;
    uint32_t ReplacementLen;
    uint64_t PathHash;
  };
  struct PopOrder {
    bool operator()(const Candidate &A, const Candidate &B) const {
      if (A.Score != B.Score)
        return A.Score > B.Score;
      return A.Seq < B.Seq;
    }
  };

  /// The Section 3 features of one execution.
  struct Run {
    std::vector<uint32_t> NewBranches; // |branches \ vBr| up to the cut
    double AvgStack = 0;
    uint64_t PathHash = 0;
    uint32_t LastIdx = 0; // the last compared input index
    bool HaveIdx = false;
  };

  static uint64_t fnv(const std::string &Bytes) {
    uint64_t H = 0xCBF29CE484222325ULL;
    for (char C : Bytes) {
      H ^= static_cast<unsigned char>(C);
      H *= 0x100000001B3ULL;
    }
    return H;
  }

  char randomChar() {
    uint64_t Roll = R.below(16);
    if (Roll == 0)
      return '\n';
    if (Roll == 1)
      return '\t';
    return R.nextPrintable();
  }

  void sampleTimeline() {
    std::pair<uint64_t, uint64_t> Sample(Report.Executions, VBr.size());
    if (Report.CoverageTimeline.empty() ||
        Report.CoverageTimeline.back() != Sample)
      Report.CoverageTimeline.push_back(Sample);
  }

  /// Lines 27-45: a valid input is exit code 0 with new coverage; it is
  /// emitted, grows vBr and re-ranks the queue.
  bool runCheck(const std::string &Input, RunResult &Out) {
    // Full, not the engine's Comparisons mode: the oracle records
    // everything, so a lean-mode recording gap shows up as a report diff.
    S.execute(Input, InstrumentationMode::Full, Out);
    ++Report.Executions;
    if (Out.ExitCode != 0)
      return false;
    std::vector<uint32_t> Covered = Out.coveredBranches();
    if (std::all_of(Covered.begin(), Covered.end(),
                    [this](uint32_t B) { return VBr.count(B) != 0; }))
      return false;
    Report.ValidInputs.push_back(Input);
    VBr.insert(Covered.begin(), Covered.end());
    sampleTimeline();
    rescore();
    return true;
  }

  /// Section 3.1: coverage counted up to the run's last comparison, the
  /// path hash of that covered prefix, and the average stack depth of the
  /// last two comparisons. Counts the run's parse path.
  Run stats(const RunResult &RR) {
    Run Out;
    uint32_t Cut = static_cast<uint32_t>(RR.BranchTrace.size());
    const ComparisonEvent *Last = nullptr, *SecondLast = nullptr;
    for (const ComparisonEvent &E : RR.Comparisons) {
      if (E.Implicit)
        continue;
      Cut = E.TracePosition + 1;
      SecondLast = Last;
      Last = &E;
      if (!E.OnEof && !E.Taint.empty()) {
        Out.LastIdx = std::max(Out.LastIdx, E.Taint.maxIndex());
        Out.HaveIdx = true;
      }
    }
    if (Last)
      Out.AvgStack = SecondLast
                         ? (Last->StackDepth + SecondLast->StackDepth) / 2.0
                         : Last->StackDepth;
    uint64_t H = 0xCBF29CE484222325ULL;
    for (uint32_t B : RR.coveredBranchesUpTo(Cut)) {
      H = (H ^ B) * 0x100000001B3ULL;
      if (!VBr.count(B))
        Out.NewBranches.push_back(B);
    }
    Out.PathHash = H;
    ++PathCounts[H];
    if (PathCounts.size() > Config.MaxQueue) {
      // Decay: halve every count, forget the zeros.
      for (auto It = PathCounts.begin(); It != PathCounts.end();)
        It = (It->second /= 2) == 0 ? PathCounts.erase(It) : std::next(It);
      ++PathDecays;
    }
    return Out;
  }

  /// Lines 19-25: substitute the values the parser compared the last
  /// compared character against (string comparisons at any index).
  void addInputs(const std::string &Input, const RunResult &RR,
                 const Run &Stats, uint32_t NumParents) {
    if (!Stats.HaveIdx)
      return;
    for (const ComparisonEvent &E : RR.Comparisons) {
      if (E.Implicit || E.OnEof || E.Taint.empty() ||
          (E.Taint.maxIndex() != Stats.LastIdx &&
           E.Kind != CompareKind::StrEq))
        continue;
      size_t At = std::min<size_t>(E.Taint.minIndex(), Input.size());
      for (const std::string &Rep : replacements(RR, E)) {
        std::string Cand = Input.substr(0, At) + Rep;
        if (Cand == Input || Cand.size() > Opts.MaxInputLen ||
            !Enqueued.insert(fnv(Cand)).second)
          continue;
        push({0, 0, std::move(Cand), Stats.NewBranches, Stats.AvgStack,
              NumParents + 1, static_cast<uint32_t>(Rep.size()),
              Stats.PathHash},
             0);
      }
    }
  }

  /// The values a comparison admits: the operand of an equality, every
  /// member of a set, every member of a range of at most 16 characters —
  /// otherwise both bounds and six random members.
  std::vector<std::string> replacements(const RunResult &RR,
                                        const ComparisonEvent &E) {
    std::string Expected(RR.expected(E));
    if (E.Kind == CompareKind::CharEq || E.Kind == CompareKind::StrEq)
      return {Expected};
    std::string Chars = Expected;
    if (E.Kind == CompareKind::CharRange) {
      unsigned Lo = static_cast<unsigned char>(Expected[0]);
      unsigned Hi = static_cast<unsigned char>(Expected[1]);
      Chars.clear();
      if (Hi >= Lo && Hi - Lo < 16) {
        for (unsigned C = Lo; C <= Hi; ++C)
          Chars.push_back(static_cast<char>(C));
      } else if (Hi >= Lo) {
        Chars = {static_cast<char>(Lo), static_cast<char>(Hi)};
        for (int I = 0; I < 6; ++I)
          Chars.push_back(static_cast<char>(Lo + R.below(Hi - Lo + 1)));
      }
    }
    std::vector<std::string> Out;
    for (char C : Chars)
      Out.push_back(std::string(1, C));
    return Out;
  }

  /// Lines 47-51 on a candidate's current features.
  double heur(const Candidate &C) const {
    HeuristicInputs In;
    In.NewBranches = static_cast<uint32_t>(C.NewBranches.size());
    In.InputLen = static_cast<uint32_t>(C.Input.size());
    In.ReplacementLen = C.ReplacementLen;
    In.AvgStackSize = C.AvgStack;
    In.NumParents = C.NumParents;
    auto It = PathCounts.find(C.PathHash);
    In.PathCount = It == PathCounts.end() ? 0 : It->second;
    return heuristicScore(In, Config.Heur);
  }

  void push(Candidate C, double Penalty) {
    C.Score = heur(C) + Penalty;
    C.Seq = NextSeq++;
    Queue.insert(std::move(C));
    if (Queue.size() > Config.MaxQueue)
      rescore();
  }

  /// Lines 40-43: every candidate's branch list loses what vBr now
  /// covers and its score is recomputed. Past the cap the first
  /// MaxQueue / 2 candidates in pop order survive.
  void rescore() {
    std::set<Candidate, PopOrder> Rescored;
    while (!Queue.empty()) {
      auto Node = Queue.extract(Queue.begin());
      Candidate &C = Node.value();
      C.NewBranches.erase(
          std::remove_if(C.NewBranches.begin(), C.NewBranches.end(),
                         [this](uint32_t B) { return VBr.count(B) != 0; }),
          C.NewBranches.end());
      C.Score = heur(C);
      Rescored.insert(std::move(Node));
    }
    Queue.swap(Rescored);
    if (Queue.size() <= Config.MaxQueue)
      return;
    Queue.erase(std::next(Queue.begin(), Config.MaxQueue / 2), Queue.end());
    ++Trims;
    if (RequeueCounts.size() > Config.MaxQueue)
      RequeueCounts.clear();
  }

  const Subject &S;
  const FuzzerOptions &Opts;
  const PFuzzerOptions &Config;
  Rng R;
  FuzzReport Report;
  std::set<uint32_t> VBr;
  std::set<Candidate, PopOrder> Queue;
  uint64_t NextSeq = 0;
  std::unordered_set<uint64_t> Enqueued;
  std::unordered_map<uint64_t, uint32_t> PathCounts;
  std::unordered_map<uint64_t, uint32_t> RequeueCounts;
};

} // namespace pfuzz

#endif // PFUZZ_TESTS_CORE_REFERENCEPFUZZER_H
