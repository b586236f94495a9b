//===- runtime/ExecutionContext.h - Instrumented execution ------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExecutionContext is the instrumented-execution substrate: it plays the
/// role of the paper's LLVM instrumentation pass plus runtime (Section 4).
/// Subjects read input through it, route every input-derived comparison
/// through the cmp* primitives, and record branch outcomes through
/// recordBranch (via the macros in runtime/Instrument.h). After a run the
/// fuzzer inspects the collected RunResult.
///
/// The execution hot path is allocation-free in steady state: event byte
/// payloads go into a recycled per-RunResult char arena, the input is
/// referenced (not copied), and function names resolve through a
/// process-wide intern table plus epoch-stamped per-run remap scratch.
///
/// Thread-safety contract: concurrent executions on distinct
/// ExecutionContexts are safe. All mutable state — cursor, stack depth,
/// the RunResult being recorded — lives in the context itself; the only
/// process-wide state an execution touches is the function-name intern
/// table, which is lock-free for registered names (see
/// runtime/Interning.h). Subjects are pure functions of their input with
/// no globals, so an execution's RunResult depends only on (Input, Mode),
/// never on what other threads run concurrently: parallel seed runs and
/// shard loops execute the same subject side by side without
/// influencing each other's results.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_RUNTIME_EXECUTIONCONTEXT_H
#define PFUZZ_RUNTIME_EXECUTIONCONTEXT_H

#include "runtime/Events.h"
#include "taint/TaintedValue.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pfuzz {

/// How much the runtime records; each mode records everything the one
/// before it does. Each tool picks the mode whose records it reads.
enum class InstrumentationMode {
  /// Nothing: the uninstrumented "twin" used to measure instrumentation
  /// overhead (the paper reports a ~100x slowdown).
  Off,
  /// The branch trace: what an AFL-style fuzzer consumes.
  CoverageOnly,
  /// Plus comparison events with their expected operands, EOF accesses
  /// and stack depth: what pFuzzer and the KLEE baseline consume.
  Comparisons,
  /// Plus the function-call trace (read by src/mining) and the compared
  /// bytes of every comparison (read by AFL-CTP).
  Full,
};

/// One entry of the function-call trace: an activation entering or
/// leaving, with the input cursor at that moment. The grammar miner
/// (src/mining) rebuilds derivation trees from this.
struct CallEvent {
  /// Index into RunResult::FunctionNames, or -1 for a function exit.
  int32_t NameId = -1;
  /// Input cursor position when the event fired.
  uint32_t Cursor = 0;
};

/// Everything one instrumented execution produced.
struct RunResult {
  /// Subject exit code; 0 means the input was accepted as valid.
  int ExitCode = 1;

  /// The mode the run was recorded in. A hand-built result counts as Full.
  InstrumentationMode Mode = InstrumentationMode::Full;

  /// Comparisons of tainted values, in execution order (Comparisons and
  /// Full modes).
  std::vector<ComparisonEvent> Comparisons;

  /// Accesses past the end of the input (Comparisons and Full modes).
  std::vector<EofEvent> EofAccesses;

  /// Branch trace: each entry is (SiteId << 1) | TakenBit, in execution
  /// order (every mode but Off).
  std::vector<uint32_t> BranchTrace;

  /// Function enter/exit events in execution order (Full mode only);
  /// Section 4: "the sequence of function calls together with current
  /// stack contents".
  std::vector<CallEvent> CallTrace;

  /// Function names referenced by CallTrace, in order of first appearance
  /// in this run. The views point at the subjects' __func__ literals,
  /// which live for the whole process — safe to copy between RunResults.
  std::vector<std::string_view> FunctionNames;

  /// Byte arena backing every ComparisonEvent's Expected/Actual slice.
  std::string EventChars;

  /// Resolves a comparison's expected operand against this result's arena.
  std::string_view expected(const ComparisonEvent &E) const {
    return std::string_view(EventChars).substr(E.Expected.Offset,
                                               E.Expected.Length);
  }

  /// Resolves a comparison's concrete compared bytes. Only a Full run
  /// records them.
  std::string_view actual(const ComparisonEvent &E) const {
    assert(Mode == InstrumentationMode::Full &&
           "compared bytes are recorded in Full mode only");
    return std::string_view(EventChars).substr(E.Actual.Offset,
                                               E.Actual.Length);
  }

  /// Returns true if the program tried to read past the end of input.
  bool hitEof() const { return !EofAccesses.empty(); }

  /// Walks Trace[0..End) once (End is clamped to the trace length) and
  /// calls \p OnFirst(Entry) at each entry's first appearance: once per
  /// distinct entry, in trace order. Returns a hash of the distinct set
  /// that ignores order — the sum of a SplitMix64 mix of each entry — so
  /// the same set hashes equal however the run ordered it. Dedup is
  /// O(trace) via an epoch-stamped per-site seen array and allocates
  /// nothing in steady state.
  template <typename Fn>
  uint64_t forEachDistinctBranchUpTo(uint32_t End, Fn OnFirst) const {
    uint32_t Limit = std::min(End, static_cast<uint32_t>(BranchTrace.size()));
    nextSeenPass();
    uint64_t SetHash = 0;
    for (uint32_t I = 0; I != Limit; ++I) {
      uint32_t Entry = BranchTrace[I];
      if (Entry >= SeenStamp.size())
        SeenStamp.resize(Entry + 1, 0u);
      if (SeenStamp[Entry] == SeenPass)
        continue;
      SeenStamp[Entry] = SeenPass;
      SetHash += mixBranch(Entry);
      OnFirst(Entry);
    }
    return SetHash;
  }

  /// Fills \p Out with the distinct branch-trace entries in
  /// Trace[0..End), sorted ascending. End is clamped to the trace
  /// length. \p Out is clear()ed, not reallocated — fuzzers pass a
  /// long-lived scratch buffer so the per-execution hot path performs no
  /// heap allocation. Only the unique entries are sorted.
  void coveredBranchesUpTo(uint32_t End, std::vector<uint32_t> &Out) const;

  /// Allocating convenience form of the above.
  std::vector<uint32_t> coveredBranchesUpTo(uint32_t End) const {
    std::vector<uint32_t> Out;
    coveredBranchesUpTo(End, Out);
    return Out;
  }

  /// Fills \p Out with all distinct branch-trace entries (scratch-buffer
  /// form).
  void coveredBranches(std::vector<uint32_t> &Out) const {
    coveredBranchesUpTo(static_cast<uint32_t>(BranchTrace.size()), Out);
  }

  /// Returns all distinct branch-trace entries.
  std::vector<uint32_t> coveredBranches() const {
    return coveredBranchesUpTo(static_cast<uint32_t>(BranchTrace.size()));
  }

  /// Empties every event container while keeping their heap buffers, so
  /// a recycled RunResult re-records a fresh execution without
  /// reallocating BranchTrace/Comparisons/CallTrace/EventChars.
  void clear();

private:
  friend class ExecutionContext;

  /// SplitMix64's step and finalizer: the per-entry term of the set hash.
  /// The added constant keeps entry 0 from mixing to 0, which would make
  /// a set with it hash like the set without it.
  static uint64_t mixBranch(uint32_t Entry) {
    uint64_t Z = Entry + 0x9E3779B97F4A7C15ULL;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }

  /// Starts a seen-array pass: bumps SeenPass, resetting the stamps when
  /// it wraps.
  void nextSeenPass() const;

  // --- Recycled scratch, not part of the recorded result. ---

  /// Epoch-stamped seen array for forEachDistinctBranchUpTo, indexed by
  /// branch trace entry. An entry is "seen this pass" iff SeenStamp[E] ==
  /// SeenPass; bumping SeenPass resets the whole array in O(1).
  mutable std::vector<uint32_t> SeenStamp;
  mutable uint32_t SeenPass = 0;

  /// Epoch-stamped remap from process-wide interned function ids to this
  /// run's dense FunctionNames indices. Valid iff FuncStamp[G] ==
  /// FuncPass; clear() bumps FuncPass instead of wiping the vectors.
  std::vector<uint32_t> FuncStamp;
  std::vector<int32_t> FuncId;
  uint32_t FuncPass = 1;
};

/// The per-execution instrumentation state handed to a Subject::run call.
class ExecutionContext {
public:
  explicit ExecutionContext(
      std::string_view Input,
      InstrumentationMode Mode = InstrumentationMode::Full)
      : Input(Input) {
    Result.Mode = Mode;
  }

  /// Pooled-execution constructor: adopts \p Recycled as the result
  /// storage, clearing its contents but keeping the vector capacities a
  /// previous run grew. Campaigns executing millions of inputs recycle
  /// one RunResult this way instead of reallocating every trace buffer
  /// per execution (see Subject::execute(Input, Mode, InOut)).
  ExecutionContext(std::string_view Input, InstrumentationMode Mode,
                   RunResult &&Recycled)
      : Input(Input), Result(std::move(Recycled)) {
    Result.clear();
    Result.Mode = Mode;
  }

  //===--------------------------------------------------------------------===
  // Input access
  //===--------------------------------------------------------------------===

  /// Reads the next character and advances; yields the EOF sentinel (and
  /// records an EofEvent) past the end of input.
  TChar nextChar();

  /// Reads the character \p Lookahead positions ahead without consuming.
  /// Lookahead 0 is the character nextChar would return.
  TChar peekChar(uint32_t Lookahead = 0);

  /// Current read position.
  uint32_t position() const { return Cursor; }

  /// Puts the last consumed character back. At most the entire input can be
  /// rewound; subjects use this for one-character lookahead pushback.
  void ungetChar();

  /// True if the cursor is at or past the end of input. Does NOT count as
  /// an EOF access: the paper detects EOF via attempted reads, and subjects
  /// that call an explicit "are we at the end" predicate (an feof() analog)
  /// would hide the signal the fuzzer needs. Only tinyC/mjs-style trailing
  /// checks use this.
  bool atEnd() const { return Cursor >= Input.size(); }

  /// The input under execution. A view: the context does not copy the
  /// input, the caller keeps it alive for the duration of the run (every
  /// driver already does — queues and corpora own their strings).
  std::string_view input() const { return Input; }

  //===--------------------------------------------------------------------===
  // Tracked comparisons (Comparisons and Full modes record events)
  //===--------------------------------------------------------------------===

  /// `C == Expected`. Returns the concrete outcome. \p Implicit marks a
  /// comparison that reaches the input only through an implicit flow; see
  /// ComparisonEvent::Implicit.
  bool cmpEq(const TChar &C, char Expected, bool Implicit = false);

  /// `Lo <= C && C <= Hi`.
  bool cmpRange(const TChar &C, char Lo, char Hi, bool Implicit = false);

  /// `strchr(Set, C) != nullptr` (C must be non-EOF to match).
  bool cmpSet(const TChar &C, std::string_view Set, bool Implicit = false);

  /// `strcmp(S, Expected) == 0` — the wrapped-strcmp of Section 4.
  bool cmpStr(const TString &S, std::string_view Expected);

  //===--------------------------------------------------------------------===
  // Coverage and call-stack instrumentation
  //===--------------------------------------------------------------------===

  /// Records branch site \p SiteId with outcome \p Taken; returns Taken so
  /// the macro is usable inside conditions.
  bool recordBranch(uint32_t SiteId, bool Taken);

  /// RAII scope emitted at function entry by PF_FUNC. \p Name is the
  /// enclosing function's __func__ literal; Full mode records a call
  /// trace from it for derivation-tree mining, every other mode only
  /// counts the depth.
  class FunctionScope {
  public:
    FunctionScope(ExecutionContext &Ctx, const char *Name) : Ctx(Ctx) {
      ++Ctx.StackDepth;
      if (Ctx.mode() == InstrumentationMode::Full)
        Ctx.enterFunction(Name);
    }
    ~FunctionScope() {
      --Ctx.StackDepth;
      if (Ctx.mode() == InstrumentationMode::Full)
        Ctx.exitFunction();
    }
    FunctionScope(const FunctionScope &) = delete;
    FunctionScope &operator=(const FunctionScope &) = delete;

  private:
    ExecutionContext &Ctx;
  };

  uint32_t stackDepth() const { return StackDepth; }

  InstrumentationMode mode() const { return Result.Mode; }

  /// Moves the collected result out of the context. The subject's exit
  /// code must be stored with setExitCode before calling this.
  RunResult takeResult() { return std::move(Result); }

  void setExitCode(int Code) { Result.ExitCode = Code; }

private:
  /// Appends \p Bytes to the result's event arena and returns its slice.
  EventSlice internEventChars(std::string_view Bytes);

  void recordComparison(const TChar &C, CompareKind Kind,
                        std::string_view Expected, bool Matched,
                        bool Implicit);
  void enterFunction(const char *Name);
  void exitFunction();

  /// True in the modes that record comparison events and EOF accesses.
  bool recordsComparisons() const {
    return mode() >= InstrumentationMode::Comparisons;
  }

  std::string_view Input;
  uint32_t Cursor = 0;
  uint32_t StackDepth = 0;
  RunResult Result;
};

} // namespace pfuzz

#endif // PFUZZ_RUNTIME_EXECUTIONCONTEXT_H
