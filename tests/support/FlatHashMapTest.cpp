//===- tests/support/FlatHashMapTest.cpp - FlatHashMap tests --------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential tests of the flat hash table: one seeded random sequence
/// of operations drives the table and std::unordered_map /
/// std::unordered_set side by side, and the two must agree on every
/// operation's result and on their whole contents. The sequence covers
/// key 0 (the side slot), duplicate inserts, growth from the first slot
/// array through many doublings, clear, and the retainIf rebuild the
/// campaign's path-count decay uses. Contents are compared after every
/// operation while the table is small, and once it is large after every
/// growth, clear and rebuild and every 4096th operation.
///
//===----------------------------------------------------------------------===//

#include "support/FlatHashMap.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

using namespace pfuzz;

namespace {

/// A key from a universe of \p Universe distinct values, so duplicates
/// recur: 0 now and then, small integers, and full-width FNV-like values.
uint64_t drawKey(Rng &R, uint64_t Universe) {
  if (R.chance(1, 64))
    return 0;
  uint64_t K = R.below(Universe);
  if (R.chance(1, 2))
    return K;
  // SplitMix64 finalizer: a fixed full-width image of K.
  K += 0x9E3779B97F4A7C15ULL;
  K = (K ^ (K >> 30)) * 0xBF58476D1CE4E5B9ULL;
  K = (K ^ (K >> 27)) * 0x94D049BB133111EBULL;
  return K ^ (K >> 31);
}

void expectSameMap(const FlatHashMap<uint32_t> &T,
                   const std::unordered_map<uint64_t, uint32_t> &Ref) {
  ASSERT_EQ(T.size(), Ref.size());
  for (const auto &[Key, Value] : Ref) {
    const uint32_t *Got = T.find(Key);
    ASSERT_NE(Got, nullptr) << Key;
    ASSERT_EQ(*Got, Value) << Key;
  }
  size_t Visited = 0;
  T.forEach([&](uint64_t Key, uint32_t Value) {
    ++Visited;
    auto It = Ref.find(Key);
    ASSERT_NE(It, Ref.end()) << Key;
    ASSERT_EQ(It->second, Value) << Key;
  });
  ASSERT_EQ(Visited, Ref.size());
}

void expectSameSet(const FlatHashSet &T,
                   const std::unordered_set<uint64_t> &Ref) {
  ASSERT_EQ(T.size(), Ref.size());
  for (uint64_t Key : Ref)
    ASSERT_NE(T.find(Key), nullptr) << Key;
  size_t Visited = 0;
  T.forEach([&](uint64_t Key, NoValue) {
    ++Visited;
    ASSERT_EQ(Ref.count(Key), 1u) << Key;
  });
  ASSERT_EQ(Visited, Ref.size());
}

/// The table's load invariant: a power-of-two array at most 3/4 full
/// (key 0 sits outside the array).
template <typename T> void expectLoadBound(const T &Table, bool HasZero) {
  size_t Cap = Table.capacity();
  ASSERT_EQ(Cap & (Cap - 1), 0u);
  ASSERT_LE((Table.size() - (HasZero ? 1 : 0)) * 4, Cap * 3);
}

} // namespace

TEST(FlatHashMapTest, MapMatchesUnorderedMap) {
  Rng R(0x5EED);
  FlatHashMap<uint32_t> T;
  std::unordered_map<uint64_t, uint32_t> Ref;
  size_t Doublings = 0, Decays = 0, Clears = 0, ZeroHits = 0;
  for (uint64_t Op = 0; Op != 300000; ++Op) {
    // The universe widens over the run so the table keeps growing while
    // many inserts stay duplicates.
    uint64_t Key = drawKey(R, 64 + Op);
    ZeroHits += Key == 0;
    size_t Cap = T.capacity();
    bool Structural = false;
    uint64_t Roll = R.below(100);
    if (Roll < 60) {
      // The notePath / requeue shape: count through operator[].
      ASSERT_EQ(++T[Key], ++Ref[Key]);
    } else if (Roll < 75) {
      auto [Value, Inserted] = T.tryEmplace(Key);
      auto [It, RefInserted] = Ref.try_emplace(Key);
      ASSERT_EQ(Inserted, RefInserted) << Key;
      ASSERT_EQ(*Value, It->second) << Key;
      *Value += 7;
      It->second += 7;
    } else {
      const uint32_t *Got = T.find(Key);
      auto It = Ref.find(Key);
      ASSERT_EQ(Got != nullptr, It != Ref.end()) << Key;
      if (Got) {
        ASSERT_EQ(*Got, It->second) << Key;
      }
    }
    if (T.size() > 30000) {
      // notePath's decay: halve every count, drop the zeros.
      T.retainIf([](uint64_t, uint32_t &Count) {
        Count /= 2;
        return Count != 0;
      });
      for (auto It = Ref.begin(); It != Ref.end();) {
        It->second /= 2;
        It = It->second == 0 ? Ref.erase(It) : std::next(It);
      }
      ++Decays;
      Structural = true;
    }
    if (Op % 100000 == 99999) {
      T.clear();
      Ref.clear();
      ++Clears;
      Structural = true;
    }
    ASSERT_EQ(T.size(), Ref.size());
    if (T.capacity() != Cap) {
      // Only an insert grows the array, and always by one doubling.
      ASSERT_EQ(T.capacity(), Cap == 0 ? 16 : 2 * Cap);
      ++Doublings;
      Structural = true;
    }
    if (Structural || T.size() < 2048 || Op % 4096 == 0) {
      expectSameMap(T, Ref);
      expectLoadBound(T, Ref.count(0) != 0);
    }
  }
  expectSameMap(T, Ref);
  // The run exercised what the header promises: 16 to 65,536 slots.
  EXPECT_EQ(Doublings, 13u);
  EXPECT_GE(Decays, 4u);
  EXPECT_EQ(Clears, 3u);
  EXPECT_GE(ZeroHits, 1000u);
}

TEST(FlatHashMapTest, SetMatchesUnorderedSet) {
  Rng R(0xD1FF);
  FlatHashSet T;
  std::unordered_set<uint64_t> Ref;
  size_t Doublings = 0, Rebuilds = 0, Clears = 0, Duplicates = 0;
  // Drops roughly half the keys, by key alone.
  auto Keep = [](uint64_t K) { return ((K * 0x9E37u) >> 7) % 2 == 0; };
  for (uint64_t Op = 0; Op != 300000; ++Op) {
    uint64_t Key = drawKey(R, 64 + Op);
    size_t Cap = T.capacity();
    bool Structural = false;
    if (R.below(100) < 70) {
      // The Enqueued shape: insert reports whether the key was new.
      bool Inserted = T.insert(Key);
      ASSERT_EQ(Inserted, Ref.insert(Key).second) << Key;
      Duplicates += !Inserted;
    } else {
      ASSERT_EQ(T.find(Key) != nullptr, Ref.count(Key) == 1) << Key;
    }
    if (T.size() > 60000) {
      T.retainIf([&](uint64_t K, NoValue) { return Keep(K); });
      std::erase_if(Ref, [&](uint64_t K) { return !Keep(K); });
      ++Rebuilds;
      Structural = true;
    }
    if (Op % 100000 == 99999) {
      T.clear();
      Ref.clear();
      ++Clears;
      Structural = true;
    }
    ASSERT_EQ(T.size(), Ref.size());
    if (T.capacity() != Cap) {
      ASSERT_EQ(T.capacity(), Cap == 0 ? 16 : 2 * Cap);
      ++Doublings;
      Structural = true;
    }
    if (Structural || T.size() < 2048 || Op % 4096 == 0) {
      expectSameSet(T, Ref);
      expectLoadBound(T, Ref.count(0) != 0);
    }
  }
  expectSameSet(T, Ref);
  // 16 to 131,072 slots.
  EXPECT_EQ(Doublings, 14u);
  EXPECT_GE(Rebuilds, 2u);
  EXPECT_EQ(Clears, 3u);
  EXPECT_GT(Duplicates, 20000u);
}

TEST(FlatHashMapTest, GrowsOnlyPastThreeQuartersLoad) {
  // 12,288 keys fill a 16,384-slot array to exactly 3/4; the next new
  // key doubles it, a duplicate or key 0 does not.
  FlatHashSet T;
  for (uint64_t K = 1; K <= 12288; ++K)
    ASSERT_TRUE(T.insert(K));
  EXPECT_EQ(T.capacity(), 16384u);
  EXPECT_FALSE(T.insert(12288));
  EXPECT_TRUE(T.insert(0));
  EXPECT_EQ(T.capacity(), 16384u);
  EXPECT_TRUE(T.insert(12289));
  EXPECT_EQ(T.capacity(), 32768u);
  EXPECT_EQ(T.size(), 12290u);
}

TEST(FlatHashMapTest, ZeroKeyLivesBesideTheArray) {
  FlatHashMap<uint32_t> T;
  EXPECT_EQ(T.find(0), nullptr);
  T[0] = 5;
  EXPECT_EQ(T.capacity(), 0u); // no array needed for key 0 alone
  ASSERT_NE(T.find(0), nullptr);
  EXPECT_EQ(*T.find(0), 5u);
  EXPECT_EQ(T.size(), 1u);
  T.retainIf([](uint64_t, uint32_t &V) { return --V != 4; });
  EXPECT_EQ(T.find(0), nullptr);
  EXPECT_EQ(T.size(), 0u);
}
