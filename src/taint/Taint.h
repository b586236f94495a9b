//===- taint/Taint.h - Dynamic taint labels ----------------------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic taint labels. Section 4 of the paper: "When read, each character
/// is associated with a unique identifier; this taint is later passed on to
/// values derived from that character. If a value is derived from several
/// characters, it accumulates their taints."
///
/// A TaintSet is the set of input indices a value is derived from. The
/// fuzzer uses it to map a comparison back to the input position(s) it
/// constrains.
///
/// Parser taints are almost always *contiguous*: a character read taints
/// one index, and token accumulation merges adjacent indices into a run.
/// The representation exploits that with three canonical forms, in order
/// of preference:
///
///  - Interval: the half-open contiguous range [Lo, Hi) — covers the
///    empty set, every singleton and every token-shaped run. Inline, no
///    heap.
///  - Pair: exactly two non-adjacent indices {Lo, Hi}. Inline, no heap.
///  - Spill: three or more genuinely scattered indices in a sorted,
///    deduplicated heap vector. Only reached through unusual derivation
///    patterns (e.g. checksums over non-adjacent bytes).
///
/// Reads, copies and contiguous merges — the instrumented runtime's hot
/// path — never allocate. The representation is canonical (a contiguous
/// result of a spill merge collapses back to Interval), so operator==
/// can compare fields directly.
///
/// TaintSets are plain values with no shared or global state, so
/// concurrent executions (parallel campaign seeds, shard loops)
/// propagate taint with no synchronization at all.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_TAINT_TAINT_H
#define PFUZZ_TAINT_TAINT_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pfuzz {

/// The set of input indices a runtime value is derived from.
class TaintSet {
public:
  /// Creates the empty (untainted) set.
  TaintSet() = default;

  /// Creates a singleton set for input index \p Index.
  static TaintSet forIndex(uint32_t Index) {
    TaintSet Set;
    Set.Lo = Index;
    Set.Hi = Index + 1;
    return Set;
  }

  /// Creates a set covering the half-open index range [\p Begin, \p End).
  static TaintSet forRange(uint32_t Begin, uint32_t End) {
    assert(Begin <= End && "inverted taint range");
    TaintSet Set;
    Set.Lo = Begin;
    Set.Hi = End;
    return Set;
  }

  bool empty() const { return Kind == Rep::Interval && Lo == Hi; }

  size_t size() const {
    switch (Kind) {
    case Rep::Interval:
      return Hi - Lo;
    case Rep::Pair:
      return 2;
    case Rep::Spill:
      return Heap.size();
    }
    return 0;
  }

  /// Returns true if \p Index is in the set.
  bool contains(uint32_t Index) const;

  /// Smallest tainted index. Must not be called on the empty set.
  uint32_t minIndex() const {
    assert(!empty() && "minIndex of empty taint set");
    return Lo; // Spill caches its front here
  }

  /// Largest tainted index. Must not be called on the empty set.
  uint32_t maxIndex() const {
    assert(!empty() && "maxIndex of empty taint set");
    return Kind == Rep::Interval ? Hi - 1 : Hi;
  }

  /// Merges \p Other into this set (value derivation accumulates taints).
  /// Contiguous-to-contiguous merges — the token-accumulation hot path —
  /// stay inline; scattered results spill to the heap vector.
  void mergeWith(const TaintSet &Other) {
    if (Other.empty())
      return;
    if (empty()) {
      *this = Other;
      return;
    }
    if (Kind == Rep::Interval && Other.Kind == Rep::Interval) {
      // Overlapping or touching intervals union into one interval.
      if (Lo <= Other.Hi && Other.Lo <= Hi) {
        Lo = Lo < Other.Lo ? Lo : Other.Lo;
        Hi = Hi > Other.Hi ? Hi : Other.Hi;
        return;
      }
      // Two disjoint singletons stay inline as a Pair.
      if (Hi - Lo == 1 && Other.Hi - Other.Lo == 1) {
        uint32_t A = Lo, B = Other.Lo;
        Kind = Rep::Pair;
        Lo = A < B ? A : B;
        Hi = A < B ? B : A;
        return;
      }
    } else if (Kind == Rep::Pair && Other.Kind == Rep::Interval &&
               Other.Hi - Other.Lo == 1 &&
               (Other.Lo == Lo || Other.Lo == Hi)) {
      return; // singleton already present in the pair
    } else if (Kind == Rep::Pair && Other.Kind == Rep::Pair &&
               Lo == Other.Lo && Hi == Other.Hi) {
      return;
    }
    spillMerge(Other);
  }

  /// Returns the union of \p A and \p B.
  static TaintSet merged(const TaintSet &A, const TaintSet &B) {
    TaintSet Result = A;
    Result.mergeWith(B);
    return Result;
  }

  /// Materializes the indices as a sorted vector (allocates; for tests
  /// and diagnostics — the fuzzing hot paths only use min/max/empty).
  std::vector<uint32_t> indices() const;

  bool operator==(const TaintSet &Other) const {
    // Representations are canonical, so fields compare directly.
    return Kind == Other.Kind && Lo == Other.Lo && Hi == Other.Hi &&
           (Kind != Rep::Spill || Heap == Other.Heap);
  }

  /// Representation introspection (tests and benches).
  bool isInterval() const { return Kind == Rep::Interval; }
  bool isPair() const { return Kind == Rep::Pair; }
  bool isSpilled() const { return Kind == Rep::Spill; }

private:
  enum class Rep : uint8_t {
    Interval, ///< contiguous [Lo, Hi); empty when Lo == Hi
    Pair,     ///< exactly {Lo, Hi} with Hi > Lo + 1
    Spill,    ///< Heap holds >= 3 scattered indices; Lo/Hi cache min/max
  };

  /// Appends this set's indices, in ascending order, to \p Out.
  void appendTo(std::vector<uint32_t> &Out) const;

  /// Slow-path union through materialization; re-canonicalizes so a
  /// contiguous result collapses back to Interval.
  void spillMerge(const TaintSet &Other);

  Rep Kind = Rep::Interval;
  uint32_t Lo = 0;
  uint32_t Hi = 0;
  std::vector<uint32_t> Heap; // Spill only; sorted, deduplicated
};

} // namespace pfuzz

#endif // PFUZZ_TAINT_TAINT_H
