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
/// A value's taint is kept as the hull of the input indices it derives
/// from: the smallest index and the largest index plus one. The search
/// reads two things of a comparison's taint (Algorithm 1, Section 3): the
/// last compared index, and the span a substitution is spliced into. Both
/// are the hull's ends, and the hull of a union equals the hull of the two
/// hulls, so carrying only the hull through every derivation records the
/// same events as accumulating the full index sets would. A value derived
/// from the scattered indices {0, 2, 5} carries [0, 6); membership is not
/// recoverable, and nothing reads it.
///
/// A hull is eight bytes and trivially copyable: reads, copies and merges
/// never allocate, and concurrent executions (parallel campaign seeds,
/// shards) propagate taint with no shared state.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_TAINT_TAINT_H
#define PFUZZ_TAINT_TAINT_H

#include <cassert>
#include <cstdint>

namespace pfuzz {

/// The hull of the input indices a value is derived from: its smallest
/// index and its largest index plus one, or an empty range for an
/// untainted value.
class TaintBounds {
public:
  /// Creates empty (untainted) bounds.
  TaintBounds() = default;

  /// Bounds of the single input index \p Index.
  static TaintBounds forIndex(uint32_t Index) {
    return forRange(Index, Index + 1);
  }

  /// Bounds of the half-open index range [\p Begin, \p End).
  static TaintBounds forRange(uint32_t Begin, uint32_t End) {
    assert(Begin <= End && "inverted taint bounds");
    return TaintBounds(Begin, End);
  }

  bool empty() const { return lo() == hi(); }

  /// Smallest tainted index. Must not be called on empty bounds.
  uint32_t minIndex() const {
    assert(!empty() && "minIndex of empty taint bounds");
    return lo();
  }

  /// Largest tainted index. Must not be called on empty bounds.
  uint32_t maxIndex() const {
    assert(!empty() && "maxIndex of empty taint bounds");
    return hi() - 1;
  }

  /// Widens these bounds to the hull of both (value derivation accumulates
  /// taints). An empty side is the identity.
  void mergeWith(const TaintBounds &Other) {
    if (Other.empty())
      return;
    if (empty()) {
      *this = Other;
      return;
    }
    *this = TaintBounds(lo() < Other.lo() ? lo() : Other.lo(),
                        hi() > Other.hi() ? hi() : Other.hi());
  }

  /// All empty bounds compare equal.
  bool operator==(const TaintBounds &Other) const {
    return (empty() && Other.empty()) || Bits == Other.Bits;
  }

private:
  TaintBounds(uint32_t Lo, uint32_t Hi)
      : Bits(static_cast<uint64_t>(Hi) << 32 | Lo) {}

  uint32_t lo() const { return static_cast<uint32_t>(Bits); }
  uint32_t hi() const { return static_cast<uint32_t>(Bits >> 32); }

  /// Lo in the low half, Hi in the high half. One 64-bit word, not two
  /// 32-bit fields: a TChar comes back from peekChar in registers, and
  /// GCC 12 packed two 32-bit fields into one register through the stack,
  /// so each read and each recorded comparison stalled on store
  /// forwarding (pFuzzer campaigns on ini and csv ran 7-11 % slower).
  uint64_t Bits = 0;
};

} // namespace pfuzz

#endif // PFUZZ_TAINT_TAINT_H
