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

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pfuzz {

/// How much the runtime records. Off gives an uninstrumented "twin" used to
/// measure instrumentation overhead (the paper reports a ~100x slowdown);
/// CoverageOnly is what an AFL-style fuzzer consumes.
enum class InstrumentationMode {
  Off,
  CoverageOnly,
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

  /// Comparisons of tainted values, in execution order (Full mode only).
  std::vector<ComparisonEvent> Comparisons;

  /// Accesses past the end of the input (Full mode only).
  std::vector<EofEvent> EofAccesses;

  /// Branch trace: each entry is (SiteId << 1) | TakenBit, in execution
  /// order (CoverageOnly and Full).
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

  /// Resolves a comparison's concrete compared bytes.
  std::string_view actual(const ComparisonEvent &E) const {
    return std::string_view(EventChars).substr(E.Actual.Offset,
                                               E.Actual.Length);
  }

  /// Returns true if the program tried to read past the end of input.
  bool hitEof() const { return !EofAccesses.empty(); }

  /// Fills \p Out with the distinct branch-trace entries in
  /// Trace[0..End), sorted ascending. End is clamped to the trace
  /// length. \p Out is clear()ed, not reallocated — fuzzers pass a
  /// long-lived scratch buffer so the per-execution hot path performs no
  /// heap allocation. Dedup is O(trace) via an epoch-stamped per-site
  /// seen array; only the unique entries are sorted.
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

  /// Deep-copies \p Other's recorded contents into this result, reusing
  /// this result's existing buffer capacities (the run cache recycles
  /// evicted entries through this). Scratch state is not copied.
  void assignFrom(const RunResult &Other);

  /// Deep-copies the first-\p At slice of \p Full's event containers into
  /// this result — exactly the state \p Full's run had recorded at the
  /// moment ExecutionContext::markTo captured \p At. Valid because
  /// recording is strictly append-only (see markTo); ExitCode is reset to
  /// the not-yet-finished default, never copied from the completed run.
  void assignPrefixFrom(const RunResult &Full, const struct RunMark &At);

private:
  friend class ExecutionContext;

  // --- Recycled scratch, not part of the recorded result. ---

  /// Epoch-stamped seen array for coveredBranchesUpTo, indexed by branch
  /// trace entry. An entry is "seen this pass" iff SeenStamp[E] ==
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

class ExecutionContext;

/// Callback with the engine's two suspension points: a read past the end
/// of the input (the exact moment the search would extend the candidate)
/// and an in-bounds read crossing the context's rung limit (where the
/// resumption engine mints mid-run "ladder" checkpoints). Both fire
/// *before* the read's effect is recorded, so a checkpoint taken inside
/// the hook captures exactly the state a cold run of any input sharing
/// the observed prefix would reach.
struct PastEndHook {
  /// Fired when an execution attempts to read past the end of its input,
  /// before the EofEvent is recorded. Returns true when the context's
  /// input may have grown underneath the caller (the read re-checks its
  /// bounds), false to proceed to the EOF sentinel.
  virtual bool onPastEnd(ExecutionContext &Ctx) = 0;

  /// Fired when an in-bounds read first touches byte \p Index >= the
  /// context's rung limit (setRungLimit), before the byte is served:
  /// every byte observed so far lies below the limit, so the state here
  /// depends only on Input[0..Index) and is a valid resume point for any
  /// input sharing that prefix. Same return contract as onPastEnd; the
  /// default never suspends.
  virtual bool onRungReached(ExecutionContext &Ctx, uint32_t Index) {
    (void)Ctx;
    (void)Index;
    return false;
  }

protected:
  ~PastEndHook() = default;
};

/// An O(1) watermark of everything an ExecutionContext has recorded up to
/// one point of its run: the cursor and stack-depth counters plus the
/// size of every event container. Because recording is append-only, the
/// completed run's RunResult truncated at these sizes *is* the state at
/// the marked moment — checkpoints store a mark plus a shared pointer to
/// the final result instead of a deep copy (the stack side of the state
/// is a FiberCheckpoint; see runtime/PrefixResumeCache.h).
struct RunMark {
  uint32_t Cursor = 0;
  uint32_t StackDepth = 0;
  uint32_t MaxStackDepth = 0;
  uint32_t NumComparisons = 0;
  uint32_t NumEofAccesses = 0;
  uint32_t NumBranches = 0;
  uint32_t NumCalls = 0;
  uint32_t NumNames = 0;
  uint32_t NumEventChars = 0;
};

/// The per-execution instrumentation state handed to a Subject::run call.
class ExecutionContext {
public:
  explicit ExecutionContext(
      std::string_view Input,
      InstrumentationMode Mode = InstrumentationMode::Full)
      : Input(Input), Mode(Mode) {}

  /// Pooled-execution constructor: adopts \p Recycled as the result
  /// storage, clearing its contents but keeping the vector capacities a
  /// previous run grew. Campaigns executing millions of inputs recycle
  /// one RunResult this way instead of reallocating every trace buffer
  /// per execution (see Subject::execute(Input, Mode, InOut)).
  ExecutionContext(std::string_view Input, InstrumentationMode Mode,
                   RunResult &&Recycled)
      : Input(Input), Mode(Mode), Result(std::move(Recycled)) {
    Result.clear();
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
  // Tracked comparisons (Full mode records ComparisonEvents)
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
  /// trace from it for derivation-tree mining.
  class FunctionScope {
  public:
    FunctionScope(ExecutionContext &Ctx, const char *Name) : Ctx(Ctx) {
      ++Ctx.StackDepth;
      if (Ctx.StackDepth > Ctx.MaxStackDepth)
        Ctx.MaxStackDepth = Ctx.StackDepth;
      if (Ctx.Mode == InstrumentationMode::Full)
        Ctx.enterFunction(Name);
    }
    ~FunctionScope() {
      --Ctx.StackDepth;
      if (Ctx.Mode == InstrumentationMode::Full)
        Ctx.exitFunction();
    }
    FunctionScope(const FunctionScope &) = delete;
    FunctionScope &operator=(const FunctionScope &) = delete;

  private:
    ExecutionContext &Ctx;
  };

  uint32_t stackDepth() const { return StackDepth; }
  uint32_t maxStackDepth() const { return MaxStackDepth; }

  InstrumentationMode mode() const { return Mode; }

  /// Moves the collected result out of the context. The subject's exit
  /// code must be stored with setExitCode before calling this.
  RunResult takeResult() { return std::move(Result); }

  void setExitCode(int Code) { Result.ExitCode = Code; }

  //===--------------------------------------------------------------------===
  // Suspend/resume entry points (prefix-resumption engine)
  //===--------------------------------------------------------------------===

  /// Installs \p H to observe suspension points; null detaches. The hook
  /// is engine-internal — subjects never see it, and a context without
  /// one behaves exactly as before.
  void setPastEndHook(PastEndHook *H) { Hook = H; }

  /// Arms PastEndHook::onRungReached: the next in-bounds read of any byte
  /// at index >= \p Limit fires the hook before the byte is served. The
  /// default (no limit) adds one predictable compare to the read path and
  /// nothing else.
  void setRungLimit(uint64_t Limit) { RungLimit = Limit; }

  static constexpr uint64_t NoRungLimit = ~0ULL;

  /// Captures the recorded-so-far state as an O(1) watermark (see
  /// RunMark). Every recorder in this class only ever appends — any new
  /// instrumentation must preserve that, or marks stop reconstructing
  /// mid-run state.
  void markTo(RunMark &Out) const {
    Out.Cursor = Cursor;
    Out.StackDepth = StackDepth;
    Out.MaxStackDepth = MaxStackDepth;
    Out.NumComparisons = static_cast<uint32_t>(Result.Comparisons.size());
    Out.NumEofAccesses = static_cast<uint32_t>(Result.EofAccesses.size());
    Out.NumBranches = static_cast<uint32_t>(Result.BranchTrace.size());
    Out.NumCalls = static_cast<uint32_t>(Result.CallTrace.size());
    Out.NumNames = static_cast<uint32_t>(Result.FunctionNames.size());
    Out.NumEventChars = static_cast<uint32_t>(Result.EventChars.size());
  }

  /// Restores the state \p Full's run had at mark \p At as this context's
  /// recorded state and swaps the input for \p NewInput, which must share
  /// the marked run's observed prefix — the continuation then records
  /// exactly what a cold run of \p NewInput would from that point on.
  /// Rebuilds the interned-name remap scratch so re-entered functions
  /// resolve to their restored FunctionNames ids.
  void restoreFrom(const RunResult &Full, const RunMark &At,
                   std::string_view NewInput);

private:
  /// Appends \p Bytes to the result's event arena and returns its slice.
  EventSlice internEventChars(std::string_view Bytes);

  void recordComparison(const TChar &C, CompareKind Kind,
                        std::string_view Expected, bool Matched,
                        bool Implicit);
  void enterFunction(const char *Name);
  void exitFunction();

  std::string_view Input;
  InstrumentationMode Mode;
  uint32_t Cursor = 0;
  uint32_t StackDepth = 0;
  uint32_t MaxStackDepth = 0;
  RunResult Result;
  PastEndHook *Hook = nullptr;
  /// First in-bounds index whose read fires onRungReached.
  uint64_t RungLimit = NoRungLimit;
};

} // namespace pfuzz

#endif // PFUZZ_RUNTIME_EXECUTIONCONTEXT_H
