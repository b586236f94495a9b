//===- tests/baselines/KleeStateStoreTest.cpp - KLEE state store tests ----===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/KleeStateStore.h"

#include <gtest/gtest.h>

#include <set>

using namespace pfuzz;

namespace {

/// Makes every key collide, so membership rests on the byte compare alone.
struct ConstantHash {
  size_t operator()(std::string_view) const { return 42; }
};

/// Also collides everywhere, on the value that marks an empty slot.
struct ZeroHash {
  size_t operator()(std::string_view) const { return 0; }
};

std::vector<std::string> drain(auto &Store) {
  std::vector<std::string> Out;
  std::string State;
  while (!Store.empty()) {
    Store.pop(State);
    Out.push_back(State);
  }
  return Out;
}

/// Distinct keys of mixed lengths, including prefixes of one another.
std::vector<std::string> sampleKeys() {
  std::vector<std::string> Keys = {"", "a",  "aa", "ab",
                                   "b", "ba", std::string(1, '\0')};
  for (int I = 0; I != 200; ++I)
    Keys.push_back("k" + std::to_string(I));
  return Keys;
}

template <typename HashFn> void checkExactUnderCollisions() {
  KleeStateStore<HashFn> Store(/*MaxLen=*/256, /*MaxPending=*/1 << 10);
  std::vector<std::string> Keys = sampleKeys();
  for (const std::string &K : Keys)
    EXPECT_TRUE(Store.push(K, /*Front=*/false)) << K;
  // Every key is present once: pushing it again is refused.
  for (const std::string &K : Keys)
    EXPECT_FALSE(Store.push(K, /*Front=*/false)) << K;
  EXPECT_EQ(Store.seen(), Keys.size());
  // The queue hands the states back in insertion order.
  EXPECT_EQ(drain(Store), Keys);
  // Popped states stay seen; absent ones, near misses of present ones
  // included, are not.
  for (const std::string &K : Keys)
    EXPECT_FALSE(Store.push(K, /*Front=*/true)) << K;
  for (const char *Absent : {"c", "aaa", "k200", "k", "bb"})
    EXPECT_TRUE(Store.push(Absent, /*Front=*/false)) << Absent;
  EXPECT_EQ(Store.seen(), Keys.size() + 5);
}

} // namespace

TEST(KleeStateStoreTest, ExactUnderConstantHash) {
  checkExactUnderCollisions<ConstantHash>();
}

TEST(KleeStateStoreTest, ExactUnderZeroHash) {
  checkExactUnderCollisions<ZeroHash>();
}

TEST(KleeStateStoreTest, ExactWithDefaultHash) {
  checkExactUnderCollisions<std::hash<std::string_view>>();
}

TEST(KleeStateStoreTest, FrontPushesJumpTheQueue) {
  KleeStateStore<ConstantHash> Store(256, 16);
  Store.push("b1", /*Front=*/false);
  Store.push("f1", /*Front=*/true);
  Store.push("b2", /*Front=*/false);
  Store.push("f2", /*Front=*/true);
  std::vector<std::string> Want = {"f2", "f1", "b1", "b2"};
  EXPECT_EQ(drain(Store), Want);
}

TEST(KleeStateStoreTest, EmptyInputIsAState) {
  KleeStateStore<> Store(256, 16);
  EXPECT_TRUE(Store.push("", /*Front=*/false));
  EXPECT_FALSE(Store.push("", /*Front=*/true));
  std::string State = "stale";
  Store.pop(State);
  EXPECT_EQ(State, "");
  EXPECT_TRUE(Store.empty());
}

TEST(KleeStateStoreTest, LengthLimitIsInclusive) {
  KleeStateStore<> Store(/*MaxLen=*/4, 16);
  EXPECT_FALSE(Store.push("abcde", /*Front=*/false));
  EXPECT_TRUE(Store.push("abcd", /*Front=*/false));
  EXPECT_EQ(Store.seen(), 1u);
}

TEST(KleeStateStoreTest, FullQueueRefusesWithoutMarkingSeen) {
  KleeStateStore<ConstantHash> Store(256, /*MaxPending=*/2);
  EXPECT_TRUE(Store.push("x", /*Front=*/false));
  EXPECT_TRUE(Store.push("y", /*Front=*/false));
  EXPECT_TRUE(Store.full());
  // Refused while full, and not marked as seen: once the queue has room
  // the same state is accepted.
  EXPECT_FALSE(Store.push("z", /*Front=*/true));
  EXPECT_EQ(Store.seen(), 2u);
  std::string State;
  Store.pop(State);
  EXPECT_EQ(State, "x");
  EXPECT_FALSE(Store.full());
  EXPECT_TRUE(Store.push("z", /*Front=*/true));
  std::vector<std::string> Want = {"z", "y"};
  EXPECT_EQ(drain(Store), Want);
}

TEST(KleeStateStoreTest, ManyStatesSurviveGrowth) {
  KleeStateStore<> Store(256, 1 << 20);
  std::set<std::string> Pushed;
  for (int I = 0; I != 20000; ++I) {
    std::string Key = std::to_string(I * 7919 % 10007);
    EXPECT_EQ(Store.push(Key, I % 3 == 0), Pushed.insert(Key).second) << Key;
  }
  EXPECT_EQ(Store.seen(), Pushed.size());
  std::vector<std::string> Popped = drain(Store);
  EXPECT_EQ(Popped.size(), Pushed.size());
  EXPECT_EQ(std::set<std::string>(Popped.begin(), Popped.end()), Pushed);
}
