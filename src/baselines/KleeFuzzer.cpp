//===- baselines/KleeFuzzer.cpp - Constraint-based baseline ---------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/KleeFuzzer.h"

#include "baselines/KleeStateStore.h"

#include <algorithm>

using namespace pfuzz;

namespace {

/// Hard cap on pending states; beyond it new forks are dropped — the
/// moral equivalent of KLEE spending its memory/time budget on state
/// bookkeeping once paths explode.
constexpr size_t MaxStates = 1 << 19;

class KleeCampaign {
public:
  KleeCampaign(const Subject &S, const FuzzerOptions &Opts)
      : S(S), Opts(Opts), States(Opts.MaxInputLen, MaxStates) {}

  FuzzReport run();

private:
  /// Queues the states forked from \p Input's run. \p Prioritise mirrors
  /// KLEE's coverage-optimised searcher (nurs:covnew): states forked from
  /// a run that covered new code jump the queue.
  void forkFrom(const std::string &Input, const RunResult &RR,
                bool Prioritise);

  const Subject &S;
  const FuzzerOptions &Opts;
  /// Pending states and every state ever queued.
  KleeStateStore<> States;
  BranchCoverageMap AllCovered; // new-code filter for emission
  FuzzReport Report;
  RunResult RR; // recycled across executions
  std::vector<uint32_t> Covered;
  std::string Fork; // recycled buffer the forks are built in
};

/// Calls \p F once per alternative operand value a comparison admits (the
/// satisfying assignments a solver would produce), in a fixed order.
/// \p RR owns the arena the event's operand slices resolve against.
template <typename Fn>
void forEachSolution(const RunResult &RR, const ComparisonEvent &E, Fn F) {
  std::string_view Expected = RR.expected(E);
  switch (E.Kind) {
  case CompareKind::CharEq:
  case CompareKind::StrEq:
    F(Expected);
    break;
  case CompareKind::CharSet:
    for (size_t I = 0; I != Expected.size(); ++I)
      F(Expected.substr(I, 1));
    break;
  case CompareKind::CharRange: {
    // A range check is a single branch; a solver returns one model per
    // branch outcome, not an enumeration of the range. Three
    // representatives keep the state fan-out KLEE-like while still giving
    // downstream arithmetic (hex decoding) some value diversity.
    unsigned Lo = static_cast<unsigned char>(Expected[0]);
    unsigned Hi = static_cast<unsigned char>(Expected[1]);
    char C = static_cast<char>(Lo);
    F(std::string_view(&C, 1));
    if (Hi != Lo) {
      C = static_cast<char>(Hi);
      F(std::string_view(&C, 1));
      if (Hi - Lo > 1) {
        C = static_cast<char>(Lo + (Hi - Lo) / 2);
        F(std::string_view(&C, 1));
      }
    }
    break;
  }
  }
}

} // namespace

void KleeCampaign::forkFrom(const std::string &Input, const RunResult &RR,
                            bool Prioritise) {
  // The forks go to the store as one batch, in the order a KLEE searcher
  // would queue them.
  std::string_view In = Input;
  for (const ComparisonEvent &E : RR.Comparisons) {
    // Nothing pops while forking, so once the queue is full every
    // further fork would be refused.
    if (States.full())
      break;
    if (E.Taint.empty())
      continue;
    // Branch-negation targeting: the instrumented comparison records its
    // conditional branch right after the event; if the *flipped* outcome
    // was never covered, satisfying this comparison reaches new code and
    // the forked state jumps the queue (KLEE's covnew searcher).
    bool TargetsNewCode =
        E.TracePosition < RR.BranchTrace.size() &&
        !AllCovered.test(RR.BranchTrace[E.TracePosition] ^ 1u);
    size_t Begin = std::min<size_t>(E.Taint.minIndex(), Input.size());
    size_t End = std::min<size_t>(E.Taint.maxIndex() + 1, Input.size());
    std::string_view Solved = In.substr(Begin, End - Begin);
    forEachSolution(RR, E, [&](std::string_view Sol) {
      // A solution equal to the bytes it replaces forks the input itself.
      if (Sol == Solved)
        return;
      // Substitute the solved bytes, keep the unconstrained suffix.
      Fork.assign(In.substr(0, Begin));
      Fork.append(Sol);
      Fork.append(In.substr(End));
      States.stage(Fork, Prioritise || TargetsNewCode);
    });
  }
  // Symbolic input length (KLEE's symbolic stdin): a state where the
  // input ends earlier, and -- when the program tried to read further --
  // one where an additional unconstrained byte exists. The filler byte's
  // value is arbitrary; the next run's comparisons constrain it.
  if (!Input.empty())
    States.stage(In.substr(0, In.size() - 1), /*Front=*/false);
  if (RR.hitEof()) {
    Fork.assign(In);
    Fork.push_back('A');
    States.stage(Fork, Prioritise);
  }
  States.flush();
}

FuzzReport KleeCampaign::run() {
  States.push("", /*Front=*/false);
  uint64_t SampleEvery = std::max<uint64_t>(1, Opts.MaxExecutions / 256);
  std::string Input; // recycled copy of the state being run
  while (!States.empty() && Report.Executions < Opts.MaxExecutions) {
    States.pop(Input);
    S.execute(Input, InstrumentationMode::Comparisons, RR);
    ++Report.Executions;
    bool NewCode = false;
    RR.coveredBranches(Covered);
    for (uint32_t B : Covered)
      if (AllCovered.set(B))
        NewCode = true;
    if (RR.ExitCode == 0) {
      if (Opts.OnValidInput)
        Opts.OnValidInput(Input);
      bool NewValid = false;
      for (uint32_t B : Covered)
        if (Report.ValidBranches.set(B))
          NewValid = true;
      if (NewValid || NewCode)
        Report.ValidInputs.push_back(Input);
    }
    forkFrom(Input, RR, NewCode);
    if (Report.Executions % SampleEvery == 0)
      Report.CoverageTimeline.emplace_back(Report.Executions,
                                           Report.ValidBranches.size());
  }
  Report.CoverageTimeline.emplace_back(Report.Executions,
                                       Report.ValidBranches.size());
  return std::move(Report);
}

FuzzReport KleeFuzzer::run(const Subject &S, const FuzzerOptions &Opts) {
  return KleeCampaign(S, Opts).run();
}
