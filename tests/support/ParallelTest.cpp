//===- tests/support/ParallelTest.cpp - parallelFor tests -----------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract of parallelFor: every index runs exactly once, the
/// concurrency cap holds, exceptions surface in index order after every
/// iteration ran, and nested calls complete. The TSan CI job runs these
/// to check the counter and error-slot handoff.
///
//===----------------------------------------------------------------------===//

#include "support/Parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace pfuzz;

TEST(ParallelForTest, HardwareThreadsAtLeastOne) {
  EXPECT_GE(hardwareThreads(), 1u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> Hits(100);
  for (std::atomic<int> &H : Hits)
    H.store(0);
  parallelFor(
      0, Hits.size(), [&Hits](size_t I) { Hits[I].fetch_add(1); },
      /*MaxConcurrency=*/4);
  for (const std::atomic<int> &Hit : Hits)
    EXPECT_EQ(Hit.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsANoOp) {
  int Calls = 0;
  parallelFor(5, 5, [&Calls](size_t) { ++Calls; });
  parallelFor(7, 5, [&Calls](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0);
}

TEST(ParallelForTest, HonorsConcurrencyCap) {
  std::atomic<int> Active{0}, MaxActive{0};
  parallelFor(
      0, 64,
      [&](size_t) {
        int Now = Active.fetch_add(1) + 1;
        int Seen = MaxActive.load();
        while (Now > Seen && !MaxActive.compare_exchange_weak(Seen, Now)) {
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        Active.fetch_sub(1);
      },
      /*MaxConcurrency=*/2);
  EXPECT_LE(MaxActive.load(), 2);
}

TEST(ParallelForTest, CapOfOneRunsInIndexOrderOnCaller) {
  std::vector<size_t> Order;
  std::thread::id Caller = std::this_thread::get_id();
  parallelFor(
      3, 9,
      [&](size_t I) {
        EXPECT_EQ(std::this_thread::get_id(), Caller);
        Order.push_back(I);
      },
      /*MaxConcurrency=*/1);
  EXPECT_EQ(Order, (std::vector<size_t>{3, 4, 5, 6, 7, 8}));
}

TEST(ParallelForTest, RethrowsFirstExceptionInIndexOrder) {
  std::atomic<int> Completed{0};
  try {
    parallelFor(
        0, 32,
        [&Completed](size_t I) {
          if (I == 3)
            throw std::runtime_error("index 3");
          if (I == 20)
            throw std::logic_error("index 20");
          Completed.fetch_add(1);
        },
        /*MaxConcurrency=*/4);
    FAIL() << "parallelFor should have thrown";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "index 3");
  }
  // Every non-throwing iteration still ran despite the exceptions.
  EXPECT_EQ(Completed.load(), 30);
}

TEST(ParallelForTest, NestedCallCompletes) {
  // A body that fans out again: every inner index of every outer index
  // runs exactly once.
  constexpr size_t Outer = 4, Inner = 16;
  std::vector<std::atomic<int>> Hits(Outer * Inner);
  for (std::atomic<int> &H : Hits)
    H.store(0);
  parallelFor(
      0, Outer,
      [&](size_t O) {
        parallelFor(
            0, Inner, [&](size_t I) { Hits[O * Inner + I].fetch_add(1); },
            /*MaxConcurrency=*/3);
      },
      /*MaxConcurrency=*/4);
  for (const std::atomic<int> &Hit : Hits)
    EXPECT_EQ(Hit.load(), 1);
}
