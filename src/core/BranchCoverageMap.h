//===- core/BranchCoverageMap.h - Dense branch-outcome bitmap ----*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense bitmap over branch outcomes, keyed by (SiteId << 1) | Taken —
/// the same keys the runtime's branch trace carries. Branch-site ids are
/// small, dense, per-subject compile-time counters, so a bitmap turns the
/// fuzzer's hottest operation (was this outcome already covered by a
/// valid input?) from an std::set lookup into a single word test. The
/// epoch counter lets consumers cache derived data (e.g. a candidate's
/// filtered new-branch list) and skip recomputation while coverage has
/// not grown. The map only grows, so one count of the set keys is both
/// its size and its epoch.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_CORE_BRANCHCOVERAGEMAP_H
#define PFUZZ_CORE_BRANCHCOVERAGEMAP_H

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

namespace pfuzz {

/// Dense set of branch outcomes ((SiteId << 1) | Taken keys).
class BranchCoverageMap {
public:
  /// Sets \p Key; returns true iff it was not set before. Every newly set
  /// bit advances the epoch.
  bool set(uint32_t Key) {
    size_t Word = Key >> 6;
    if (Word >= Words.size())
      Words.resize(Word + 1, 0);
    uint64_t Bit = 1ull << (Key & 63);
    if (Words[Word] & Bit)
      return false;
    Words[Word] |= Bit;
    ++Count;
    return true;
  }

  /// True iff \p Key is set.
  bool test(uint32_t Key) const {
    size_t Word = Key >> 6;
    return Word < Words.size() && (Words[Word] & (1ull << (Key & 63))) != 0;
  }

  /// Inserts every key in [First, Last).
  template <typename It> void insert(It First, It Last) {
    for (; First != Last; ++First)
      set(*First);
  }

  /// Number of set keys.
  size_t size() const { return Count; }

  bool empty() const { return Count == 0; }

  /// Monotone counter that advances whenever a new key is set. Equal
  /// epochs guarantee the map content has not changed in between.
  uint64_t epoch() const { return Count; }

  /// The set keys in ascending order.
  std::vector<uint32_t> values() const {
    std::vector<uint32_t> Out;
    Out.reserve(Count);
    for (size_t W = 0; W != Words.size(); ++W) {
      uint64_t Word = Words[W];
      while (Word != 0) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(Word));
        Out.push_back(static_cast<uint32_t>((W << 6) + Bit));
        Word &= Word - 1;
      }
    }
    return Out;
  }

  /// std::set view for callers that diff against set-based bookkeeping
  /// (tests, grammar mining).
  std::set<uint32_t> toSet() const {
    std::vector<uint32_t> Vals = values();
    return std::set<uint32_t>(Vals.begin(), Vals.end());
  }

  /// Content equality. Words only grow to reach the largest key set, so
  /// equal content means equal word vectors.
  friend bool operator==(const BranchCoverageMap &A,
                         const BranchCoverageMap &B) {
    return A.Words == B.Words;
  }

  friend bool operator!=(const BranchCoverageMap &A,
                         const BranchCoverageMap &B) {
    return !(A == B);
  }

private:
  std::vector<uint64_t> Words;
  size_t Count = 0;
};

} // namespace pfuzz

#endif // PFUZZ_CORE_BRANCHCOVERAGEMAP_H
