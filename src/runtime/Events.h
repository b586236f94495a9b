//===- runtime/Events.h - Instrumentation event records ---------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event records the instrumented runtime produces for the fuzzer:
/// comparisons of tainted values (Section 4: "Any comparisons of tainted
/// values (mostly character and string comparisons) are tracked") and
/// accesses past the end of the input (Section 2: "The EOF is detected as
/// any operation that tries to access past the end of a given argument").
///
/// Event byte payloads (the expected operand and the concrete compared
/// bytes) are not owned by the event: they live in a per-RunResult char
/// arena and events hold offset+length slices into it. Recording a
/// comparison therefore appends to one recycled buffer instead of
/// constructing two std::strings per event. Resolve slices with
/// RunResult::expected(E) / RunResult::actual(E).
///
/// A ComparisonEvent is 40 bytes and trivially copyable: it keeps the
/// compared value's taint as TaintBounds, not as a TaintSet, so recording
/// one is a plain store and clearing a run's events is O(1).
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_RUNTIME_EVENTS_H
#define PFUZZ_RUNTIME_EVENTS_H

#include "taint/Taint.h"

#include <cstdint>
#include <type_traits>

namespace pfuzz {

/// Classifies a tracked comparison by the shape of its expected operand.
enum class CompareKind {
  /// Equality against a single character (`c == '('`).
  CharEq,
  /// Membership in an inclusive character range (`'0' <= c && c <= '9'`).
  CharRange,
  /// Membership in an explicit character set (`strchr("+-*/", c)`).
  CharSet,
  /// Full string equality (`strcmp(tok, "while") == 0`).
  StrEq,
};

/// A byte range inside the owning RunResult's event-character arena.
/// Meaningless without the RunResult it was recorded into.
struct EventSlice {
  uint32_t Offset = 0;
  uint32_t Length = 0;
};

/// One tracked comparison between a tainted value and an expected operand.
struct ComparisonEvent {
  /// Bounds of the input indices the compared value derives from. Empty
  /// when the subject compared a value whose taint was lost (implicit
  /// flow).
  TaintBounds Taint;

  CompareKind Kind = CompareKind::CharEq;

  /// The expected operand, as an arena slice. CharEq: one char. CharRange:
  /// exactly two chars {lo, hi}. CharSet: the member characters. StrEq:
  /// the full string. Resolve with RunResult::expected(E).
  EventSlice Expected;

  /// The concrete bytes of the compared value at comparison time, as an
  /// arena slice; recorded in Full mode only. Resolve with
  /// RunResult::actual(E).
  EventSlice Actual;

  /// Whether the comparison succeeded.
  bool Matched = false;

  /// True when the compared value was the EOF sentinel.
  bool OnEof = false;

  /// True when the comparison reaches the input only through an implicit
  /// flow (ctype table lookups, control-dependent copies). The paper's
  /// prototype does not track implicit flows (Section 5.2), so pFuzzer
  /// ignores these events; the symbolic-execution baseline, which does not
  /// rely on dynamic taint, can still use them.
  bool Implicit = false;

  /// Call-stack depth at the time of the comparison (Algorithm 1 uses the
  /// average stack size between the last two comparisons).
  uint32_t StackDepth = 0;

  /// Length of the branch trace when the comparison executed; lets the
  /// fuzzer attribute coverage "up to the first comparison of the last
  /// character" (Section 3.1).
  uint32_t TracePosition = 0;
};

static_assert(sizeof(ComparisonEvent) == 40,
              "ComparisonEvent grew; the recorded event is on the hot path");
static_assert(std::is_trivially_copyable_v<ComparisonEvent>,
              "ComparisonEvent must stay trivially copyable");

/// An attempted input access at or past the end of the input.
struct EofEvent {
  /// The out-of-bounds index that was accessed.
  uint32_t AccessIndex = 0;
};

} // namespace pfuzz

#endif // PFUZZ_RUNTIME_EVENTS_H
