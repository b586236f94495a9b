//===- baselines/AflFuzzer.cpp - AFL-style mutational fuzzer --------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/AflFuzzer.h"

#include "support/Rng.h"

#include <algorithm>
#include <array>
#include <cstring>

using namespace pfuzz;

namespace {

constexpr size_t MapSize = 1 << 16;

/// AFL's hit-count bucketing: collapses counts into 8 classes so loop
/// iteration counts don't register as endless novelty.
uint8_t bucketOf(uint32_t Count) {
  if (Count == 0)
    return 0;
  if (Count == 1)
    return 1 << 0;
  if (Count == 2)
    return 1 << 1;
  if (Count == 3)
    return 1 << 2;
  if (Count <= 7)
    return 1 << 3;
  if (Count <= 15)
    return 1 << 4;
  if (Count <= 31)
    return 1 << 5;
  if (Count <= 127)
    return 1 << 6;
  return 1 << 7;
}

const char InterestingBytes[] = {'\0', '\n', ' ',  '0',  '9',  'a',
                                 'z',  'A',  '{',  '}',  '[',  ']',
                                 '(',  ')',  '"',  ',',  ';',  '=',
                                 '<',  '>',  '/',  '\\', '\'', '\x7f'};

class AflCampaign {
public:
  AflCampaign(const Subject &S, const FuzzerOptions &Opts,
              const AflOptions &Afl)
      : S(S), Opts(Opts), Afl(Afl), R(Opts.Seed) {
    Virgin.fill(0);
    Hits.fill(0);
  }

  FuzzReport run();

private:
  /// Executes \p Input, updates the virgin map / queue / valid coverage.
  void execOne(const std::string &Input);

  /// Counts one hit of map slot \p Slot, noting the slot's first touch.
  void hit(uint32_t Slot) {
    if (Hits[Slot]++ == 0)
      Touched.push_back(Slot);
  }

  std::string mutate(const std::string &Base);

  const Subject &S;
  const FuzzerOptions &Opts;
  AflOptions Afl;
  Rng R;
  std::array<uint8_t, MapSize> Virgin;
  /// The current run's hit counts. Only the slots in Touched are nonzero,
  /// and execOne zeroes those again.
  std::array<uint32_t, MapSize> Hits;
  /// The slots the current run hit, in first-touch order.
  std::vector<uint32_t> Touched;
  std::vector<std::string> Queue;
  FuzzReport Report;
  RunResult RR; // recycled across executions
  std::vector<uint32_t> Covered;
};

} // namespace

void AflCampaign::execOne(const std::string &Input) {
  // Comparison-progress feedback needs the comparison events (the CTP
  // transformation would bake the extra edges into the binary; here the
  // Full-mode runtime supplies them).
  InstrumentationMode Mode = Afl.Cmp == CmpFeedback::None
                                 ? InstrumentationMode::CoverageOnly
                                 : InstrumentationMode::Full;
  S.execute(Input, Mode, RR); // recycles RR's trace buffers
  ++Report.Executions;
  // Edge hit counts from the branch trace, hashing (previous, current)
  // pairs like AFL's shared-memory bitmap.
  uint32_t Prev = 0;
  for (uint32_t Entry : RR.BranchTrace) {
    uint32_t Cur = (Entry * 2654435761u) & (MapSize - 1);
    hit(Cur ^ Prev);
    Prev = Cur >> 1;
  }
  if (Afl.Cmp != CmpFeedback::None) {
    // One synthetic edge per (comparison, matched prefix length): the
    // nested-if expansion of strcmp that AFL-CTP performs.
    for (const ComparisonEvent &E : RR.Comparisons) {
      if (E.Kind != CompareKind::StrEq)
        continue;
      std::string_view Actual = RR.actual(E);
      std::string_view Expected = RR.expected(E);
      uint32_t Prefix = 0;
      while (Prefix < Actual.size() && Prefix < Expected.size() &&
             Actual[Prefix] == Expected[Prefix])
        ++Prefix;
      uint32_t Feature = 0x9DC5u + Prefix * 0x01000193u;
      if (Afl.Cmp == CmpFeedback::PerKeyword)
        for (char C : Expected)
          Feature = (Feature ^ static_cast<unsigned char>(C)) * 0x01000193u;
      hit(Feature & (MapSize - 1));
    }
  }
  // Each slot's virgin update is independent of the others', so visiting
  // the touched slots in touch order decides the same as a full map walk.
  bool NewBits = false;
  for (uint32_t Slot : Touched) {
    uint8_t Bucket = bucketOf(Hits[Slot]);
    Hits[Slot] = 0;
    if ((Virgin[Slot] & Bucket) == 0) {
      Virgin[Slot] |= Bucket;
      NewBits = true;
    }
  }
  Touched.clear();
  if (NewBits && Input.size() <= Opts.MaxInputLen)
    Queue.push_back(Input);
  if (RR.ExitCode == 0) {
    if (Opts.OnValidInput)
      Opts.OnValidInput(Input);
    bool NewValidCoverage = false;
    RR.coveredBranches(Covered);
    for (uint32_t B : Covered)
      if (Report.ValidBranches.set(B))
        NewValidCoverage = true;
    if (NewValidCoverage)
      Report.ValidInputs.push_back(Input);
  }
}

std::string AflCampaign::mutate(const std::string &Base) {
  std::string Out = Base;
  // Havoc: a stacked sequence of 1..8 random mutations.
  uint64_t Stack = 1 + R.below(8);
  for (uint64_t I = 0; I != Stack; ++I) {
    switch (R.below(8)) {
    case 0: // flip a bit
      if (!Out.empty()) {
        size_t Pos = R.below(Out.size());
        Out[Pos] = static_cast<char>(Out[Pos] ^ (1 << R.below(8)));
      }
      break;
    case 1: // overwrite with a random byte
      if (!Out.empty())
        Out[R.below(Out.size())] = static_cast<char>(R.nextByte());
      break;
    case 2: // overwrite with an interesting byte
      if (!Out.empty())
        Out[R.below(Out.size())] =
            InterestingBytes[R.below(sizeof(InterestingBytes))];
      break;
    case 3: { // insert a random byte
      size_t Pos = R.below(Out.size() + 1);
      Out.insert(Out.begin() + Pos, static_cast<char>(R.nextByte()));
      break;
    }
    case 4: { // insert an interesting byte
      size_t Pos = R.below(Out.size() + 1);
      Out.insert(Out.begin() + Pos,
                 InterestingBytes[R.below(sizeof(InterestingBytes))]);
      break;
    }
    case 5: // delete a byte
      if (!Out.empty())
        Out.erase(Out.begin() + R.below(Out.size()));
      break;
    case 6: { // clone a block
      if (!Out.empty() && Out.size() < Opts.MaxInputLen) {
        size_t From = R.below(Out.size());
        size_t Len = 1 + R.below(std::min<size_t>(Out.size() - From, 8));
        size_t To = R.below(Out.size() + 1);
        Out.insert(To, Out.substr(From, Len));
      }
      break;
    }
    case 7: { // splice with another queue entry
      if (!Queue.empty()) {
        const std::string &Other = R.pick(Queue);
        if (!Other.empty()) {
          size_t Cut = R.below(Out.size() + 1);
          size_t OtherCut = R.below(Other.size());
          Out = Out.substr(0, Cut) + Other.substr(OtherCut);
        }
      }
      break;
    }
    }
    if (Out.size() > Opts.MaxInputLen)
      Out.resize(Opts.MaxInputLen);
  }
  return Out;
}

FuzzReport AflCampaign::run() {
  // The paper gives AFL a single space character as the starting corpus.
  if (Opts.MaxExecutions != 0)
    execOne(" ");
  uint64_t SampleEvery = std::max<uint64_t>(1, Opts.MaxExecutions / 256);
  while (Report.Executions < Opts.MaxExecutions) {
    // Pick a seed: bias towards recent finds and small inputs.
    const std::string *Chosen = nullptr;
    if (!Queue.empty()) {
      size_t Tries = 3;
      for (size_t T = 0; T != Tries; ++T) {
        const std::string &Cand = Queue[R.below(Queue.size())];
        if (Chosen == nullptr || Cand.size() < Chosen->size())
          Chosen = &Cand;
      }
    }
    std::string Base = Chosen != nullptr ? *Chosen : " ";
    uint64_t Energy = 32 + R.below(64);
    for (uint64_t E = 0;
         E != Energy && Report.Executions < Opts.MaxExecutions; ++E) {
      execOne(mutate(Base));
      if (Report.Executions % SampleEvery == 0)
        Report.CoverageTimeline.emplace_back(Report.Executions,
                                             Report.ValidBranches.size());
    }
  }
  Report.CoverageTimeline.emplace_back(Report.Executions,
                                       Report.ValidBranches.size());
  return std::move(Report);
}

AflFuzzer::AflFuzzer(AflOptions Options) : Options(Options) {}

FuzzReport AflFuzzer::run(const Subject &S, const FuzzerOptions &Opts) {
  return AflCampaign(S, Opts, Options).run();
}
