//===- runtime/ExecutionContext.cpp - Instrumented execution --------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/ExecutionContext.h"
#include "runtime/Interning.h"

#include <algorithm>
#include <cassert>

using namespace pfuzz;

void RunResult::nextSeenPass() const {
  if (++SeenPass == 0) {
    // Pass counter wrapped: stale stamps could alias, so reset them once
    // every 2^32 passes.
    std::fill(SeenStamp.begin(), SeenStamp.end(), 0u);
    SeenPass = 1;
  }
}

void RunResult::coveredBranchesUpTo(uint32_t End,
                                    std::vector<uint32_t> &Out) const {
  Out.clear();
  forEachDistinctBranchUpTo(End,
                            [&Out](uint32_t Entry) { Out.push_back(Entry); });
  std::sort(Out.begin(), Out.end());
}

void RunResult::clear() {
  ExitCode = 1;
  Comparisons.clear();
  EofAccesses.clear();
  BranchTrace.clear();
  CallTrace.clear();
  FunctionNames.clear();
  EventChars.clear();
  // Invalidate the interned-id remap in O(1); the stamp vectors keep
  // their storage across recycled runs.
  if (++FuncPass == 0) {
    std::fill(FuncStamp.begin(), FuncStamp.end(), 0u);
    FuncPass = 1;
  }
}

TChar ExecutionContext::nextChar() {
  TChar C = peekChar(0);
  // Advance even past the end so repeated EOF reads access fresh indices,
  // matching a C program walking a pointer past the buffer.
  ++Cursor;
  return C;
}

TChar ExecutionContext::peekChar(uint32_t Lookahead) {
  uint64_t Index = static_cast<uint64_t>(Cursor) + Lookahead;
  if (Index >= Input.size()) {
    if (recordsComparisons()) {
      // Re-reads at the same position collapse into one EofEvent: a
      // parser retrying its lookahead at one cursor wants one character,
      // and counting every attempt would inflate the "wants more input"
      // signal the search extends on.
      uint32_t At = static_cast<uint32_t>(Index);
      if (Result.EofAccesses.empty() ||
          Result.EofAccesses.back().AccessIndex != At)
        Result.EofAccesses.push_back({At});
    }
    // The EOF sentinel still carries the accessed index as taint so that
    // comparisons against it can be attributed to a position.
    return TChar(EofChar, TaintSet::forIndex(static_cast<uint32_t>(Index)));
  }
  return TChar(static_cast<unsigned char>(Input[Index]),
               TaintSet::forIndex(static_cast<uint32_t>(Index)));
}

void ExecutionContext::ungetChar() {
  assert(Cursor > 0 && "ungetChar at start of input");
  --Cursor;
}

EventSlice ExecutionContext::internEventChars(std::string_view Bytes) {
  EventSlice Slice{static_cast<uint32_t>(Result.EventChars.size()),
                   static_cast<uint32_t>(Bytes.size())};
  Result.EventChars.append(Bytes);
  return Slice;
}

void ExecutionContext::recordComparison(const TChar &C, CompareKind Kind,
                                        std::string_view Expected,
                                        bool Matched, bool Implicit) {
  if (!recordsComparisons())
    return;
  ComparisonEvent &Event = Result.Comparisons.emplace_back();
  Event.Taint = C.taint().bounds();
  Event.Kind = Kind;
  Event.Expected = internEventChars(Expected);
  // The compared character is pushed, not appended through a call into
  // the library. (Pushing one- and two-byte expected operands as well
  // measured no faster: internEventChars stopped being inlined.)
  if (mode() == InstrumentationMode::Full && !C.isEof()) {
    Event.Actual = {static_cast<uint32_t>(Result.EventChars.size()), 1};
    Result.EventChars.push_back(C.ch());
  }
  Event.Matched = Matched;
  Event.OnEof = C.isEof();
  Event.Implicit = Implicit;
  Event.StackDepth = StackDepth;
  Event.TracePosition = static_cast<uint32_t>(Result.BranchTrace.size());
}

/// Comparisons operate on unsigned byte values, like a C parser comparing
/// `unsigned char` input bytes.
static unsigned byteOf(char C) { return static_cast<unsigned char>(C); }

bool ExecutionContext::cmpEq(const TChar &C, char Expected, bool Implicit) {
  bool Matched = !C.isEof() && byteOf(C.ch()) == byteOf(Expected);
  recordComparison(C, CompareKind::CharEq, std::string_view(&Expected, 1),
                   Matched, Implicit);
  return Matched;
}

bool ExecutionContext::cmpRange(const TChar &C, char Lo, char Hi,
                                bool Implicit) {
  // An inverted range (Lo > Hi) is recorded as-is: the comparison is
  // naturally unsatisfiable, and the fuzzer's expansion of the event
  // guards against the inversion rather than the runtime aborting on a
  // subject's buggy bounds.
  bool Matched = !C.isEof() && byteOf(C.ch()) >= byteOf(Lo) &&
                 byteOf(C.ch()) <= byteOf(Hi);
  char Bounds[2] = {Lo, Hi};
  recordComparison(C, CompareKind::CharRange, std::string_view(Bounds, 2),
                   Matched, Implicit);
  return Matched;
}

bool ExecutionContext::cmpSet(const TChar &C, std::string_view Set,
                              bool Implicit) {
  bool Matched = !C.isEof() && Set.find(C.ch()) != std::string_view::npos;
  recordComparison(C, CompareKind::CharSet, Set, Matched, Implicit);
  return Matched;
}

bool ExecutionContext::cmpStr(const TString &S, std::string_view Expected) {
  bool Matched = S.view() == Expected;
  if (recordsComparisons()) {
    ComparisonEvent &Event = Result.Comparisons.emplace_back();
    Event.Taint = S.taint().bounds();
    Event.Kind = CompareKind::StrEq;
    Event.Expected = internEventChars(Expected);
    if (mode() == InstrumentationMode::Full)
      Event.Actual = internEventChars(S.view());
    Event.Matched = Matched;
    Event.OnEof = false;
    Event.StackDepth = StackDepth;
    Event.TracePosition = static_cast<uint32_t>(Result.BranchTrace.size());
  }
  return Matched;
}

void ExecutionContext::enterFunction(const char *Name) {
  uint32_t Global = internFunctionName(Name);
  if (Global >= Result.FuncStamp.size()) {
    Result.FuncStamp.resize(Global + 1, 0u);
    Result.FuncId.resize(Global + 1, 0);
  }
  if (Result.FuncStamp[Global] != Result.FuncPass) {
    Result.FuncStamp[Global] = Result.FuncPass;
    Result.FuncId[Global] = static_cast<int32_t>(Result.FunctionNames.size());
    Result.FunctionNames.push_back(Name);
  }
  Result.CallTrace.push_back({Result.FuncId[Global], Cursor});
}

void ExecutionContext::exitFunction() {
  Result.CallTrace.push_back({-1, Cursor});
}

bool ExecutionContext::recordBranch(uint32_t SiteId, bool Taken) {
  if (mode() != InstrumentationMode::Off)
    Result.BranchTrace.push_back((SiteId << 1) | (Taken ? 1u : 0u));
  return Taken;
}
