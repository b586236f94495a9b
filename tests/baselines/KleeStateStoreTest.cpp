//===- tests/baselines/KleeStateStoreTest.cpp - KLEE state store tests ----===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "baselines/KleeStateStore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

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

namespace {

/// One run's forks, grouped by the comparison event that forked them, as
/// the KLEE campaign produces them.
using Events = std::vector<std::vector<std::pair<std::string, bool>>>;

/// Forks over a small alphabet, so that events repeat one another's
/// states and states pushed by earlier runs.
Events sampleRun(unsigned Seed) {
  Events Run;
  unsigned X = Seed;
  auto Next = [&X] { return X = X * 1103515245u + 12345u, X >> 16; };
  for (int E = 0; E != 12; ++E) {
    Run.emplace_back();
    for (unsigned F = 0, N = Next() % 6; F != N; ++F) {
      std::string State;
      for (unsigned L = 0, Len = Next() % 5; L != Len; ++L)
        State.push_back(static_cast<char>('a' + Next() % 4));
      Run.back().emplace_back(State, Next() % 4 == 0);
    }
  }
  return Run;
}

/// The serial loop the batch replaces: it returns at the first event
/// boundary where the queue is full.
template <typename Store> void pushSerially(Store &S, const Events &Run) {
  for (const auto &Forks : Run) {
    if (S.full())
      return;
    for (const auto &[State, Front] : Forks)
      S.push(State, Front);
  }
}

template <typename Store> void pushBatched(Store &S, const Events &Run) {
  for (const auto &Forks : Run) {
    if (S.full())
      break;
    for (const auto &[State, Front] : Forks)
      S.stage(State, Front);
  }
  S.flush();
}

template <typename HashFn> void checkBatchEqualsSerial() {
  // A small queue fills in the middle of a batch and of an event; the
  // pops between runs free room again.
  KleeStateStore<HashFn> Serial(/*MaxLen=*/3, /*MaxPending=*/8);
  KleeStateStore<HashFn> Batched(/*MaxLen=*/3, /*MaxPending=*/8);
  std::string A, B;
  std::set<std::string> Forked;
  int FullRuns = 0;
  for (unsigned Run = 0; Run != 40; ++Run) {
    Events Forks = sampleRun(Run);
    pushSerially(Serial, Forks);
    pushBatched(Batched, Forks);
    for (const auto &Event : Forks)
      for (const auto &Fork : Event)
        Forked.insert(Fork.first);
    ASSERT_EQ(Batched.seen(), Serial.seen()) << "run " << Run;
    ASSERT_EQ(Batched.full(), Serial.full()) << "run " << Run;
    FullRuns += Serial.full();
    for (int Pop = 0; Pop != 3 && !Serial.empty(); ++Pop) {
      Serial.pop(A);
      Batched.pop(B);
      ASSERT_EQ(B, A) << "run " << Run;
    }
  }
  // The queue filled in some runs and had room after others.
  EXPECT_GT(FullRuns, 5);
  EXPECT_LT(FullRuns, 35);
  EXPECT_EQ(drain(Batched), drain(Serial));
  // The same states were refused: with the queues empty, both stores
  // accept exactly the forks they have not seen.
  for (const std::string &State : Forked)
    EXPECT_EQ(Batched.push(State, false), Serial.push(State, false)) << State;
  EXPECT_EQ(Batched.seen(), Serial.seen());
}

} // namespace

TEST(KleeStateStoreTest, BatchEqualsSerialPushes) {
  checkBatchEqualsSerial<std::hash<std::string_view>>();
}

TEST(KleeStateStoreTest, BatchEqualsSerialPushesUnderConstantHash) {
  checkBatchEqualsSerial<ConstantHash>();
}

TEST(KleeStateStoreTest, BatchFlushesOnceItFillsTheQueue) {
  KleeStateStore<> Store(256, /*MaxPending=*/40);
  for (int I = 0; I != 20; ++I)
    Store.stage("a" + std::to_string(I), /*Front=*/false);
  EXPECT_EQ(Store.seen(), 0u);
  Store.flush();
  EXPECT_EQ(Store.seen(), 20u);
  // 20 places are left, so the 20th staged state flushes the batch.
  for (int I = 0; I != 19; ++I)
    Store.stage("b" + std::to_string(I), /*Front=*/false);
  EXPECT_EQ(Store.seen(), 20u);
  Store.stage("b19", /*Front=*/false);
  EXPECT_EQ(Store.seen(), 40u);
  EXPECT_TRUE(Store.full());
}

TEST(KleeStateStoreTest, BatchFlushesNoSoonerThanMinBatch) {
  KleeStateStore<> Store(256, /*MaxPending=*/8);
  for (size_t I = 0; I + 1 != Store.MinBatch; ++I)
    Store.stage(std::to_string(I), /*Front=*/false);
  EXPECT_TRUE(Store.empty());
  Store.stage("x", /*Front=*/false);
  EXPECT_EQ(Store.seen(), 8u);
  EXPECT_TRUE(Store.full());
}

TEST(KleeStateStoreTest, StatesRoundTripAcrossBlocks) {
  // 16-byte blocks: the states below meet and pass block ends, and one
  // fills a block exactly.
  KleeStateStore<std::hash<std::string_view>, 16> Store(/*MaxLen=*/16,
                                                        1 << 10);
  std::vector<std::string> Keys;
  for (int I = 0; I != 300; ++I) {
    std::string Key(static_cast<size_t>(I * 7 % 17), '\0');
    for (size_t J = 0; J != Key.size(); ++J)
      Key[J] = static_cast<char>(I * 31 + J * 7);
    if (std::find(Keys.begin(), Keys.end(), Key) == Keys.end())
      Keys.push_back(Key);
  }
  for (const std::string &K : Keys)
    EXPECT_TRUE(Store.push(K, /*Front=*/false));
  for (const std::string &K : Keys)
    EXPECT_FALSE(Store.push(K, /*Front=*/false));
  EXPECT_EQ(drain(Store), Keys);
}

TEST(KleeStateStoreTest, StateLongerThanABlockIsRejected) {
  using SmallBlocks = KleeStateStore<std::hash<std::string_view>, 16>;
  EXPECT_THROW(SmallBlocks(/*MaxLen=*/17, 16), std::invalid_argument);
}

TEST(KleeStateStoreTest, ArenaPast32BitOffsetsThrows) {
  // A block of 2^33 bytes holds offsets past 2^32: the store refuses to
  // open it instead of wrapping the references.
  KleeStateStore<std::hash<std::string_view>, uint64_t{1} << 33> Store(16, 16);
  EXPECT_THROW(Store.push("x", /*Front=*/false), std::length_error);
  EXPECT_EQ(Store.seen(), 0u);
  EXPECT_TRUE(Store.empty());
}
