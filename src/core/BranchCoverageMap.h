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
/// not grown.
///
/// The map also keeps an append-only journal of the keys in the order
/// they were first set. Because every newly set key advances the epoch by
/// exactly one, an epoch value doubles as a journal position, and
/// exportDelta(SinceEpoch) hands out precisely the keys set after that
/// epoch — the coverage-frontier packets the sharded campaign engine
/// (core/ShardSync.h) exchanges between shards. The journal costs four
/// bytes per distinct covered outcome (a few KB on the paper subjects).
/// The map only grows, so the journal's length is both the map's size
/// and its epoch.
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
    Journal.push_back(Key);
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
  size_t size() const { return Journal.size(); }

  bool empty() const { return Journal.empty(); }

  /// Monotone counter that advances whenever a new key is set. Equal
  /// epochs guarantee the map content has not changed in between.
  uint64_t epoch() const { return Journal.size(); }

  /// Appends to \p Out every key set after \p SinceEpoch, in the order
  /// they were first set. \p SinceEpoch is a value previously returned by
  /// epoch(); passing the current epoch appends nothing. Returns the
  /// number of keys appended.
  size_t exportDelta(uint64_t SinceEpoch, std::vector<uint32_t> &Out) const {
    // Journal entry I was recorded when the epoch advanced to I + 1.
    size_t From = static_cast<size_t>(SinceEpoch);
    if (From >= Journal.size())
      return 0;
    Out.insert(Out.end(), Journal.begin() + static_cast<ptrdiff_t>(From),
               Journal.end());
    return Journal.size() - From;
  }

  /// Sets every key of [First, Last) — a delta another map exported —
  /// and returns how many were newly set here. Keys this map already
  /// covers merge silently.
  template <typename It> size_t mergeDelta(It First, It Last) {
    size_t Fresh = 0;
    for (; First != Last; ++First)
      if (set(*First))
        ++Fresh;
    return Fresh;
  }

  /// The set keys in ascending order.
  std::vector<uint32_t> values() const {
    std::vector<uint32_t> Out;
    Out.reserve(Journal.size());
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
  /// Keys in first-set order; see exportDelta. Holds each set key exactly
  /// once (set() appends only on a fresh bit).
  std::vector<uint32_t> Journal;
};

} // namespace pfuzz

#endif // PFUZZ_CORE_BRANCHCOVERAGEMAP_H
