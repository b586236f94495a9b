//===- tests/core/BranchCoverageMapTest.cpp - Coverage bitmap unit tests --===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dense branch-outcome bitmap underneath the fuzzing loop and the
/// shard-sync layer: membership, incremental size and epoch accounting,
/// content equality, and the delta journal contract —
/// exportDelta(SinceEpoch) hands out exactly the keys set after that
/// epoch, and mergeDelta replays them into another map.
///
//===----------------------------------------------------------------------===//

#include "core/BranchCoverageMap.h"

#include <gtest/gtest.h>

using namespace pfuzz;

TEST(BranchCoverageMapTest, SetTestSizeAndEpoch) {
  BranchCoverageMap Map;
  EXPECT_TRUE(Map.empty());
  EXPECT_EQ(Map.epoch(), 0u);

  EXPECT_TRUE(Map.set(7));
  EXPECT_TRUE(Map.set(64)); // second word
  EXPECT_FALSE(Map.set(7)); // duplicate: no epoch advance
  EXPECT_TRUE(Map.test(7));
  EXPECT_TRUE(Map.test(64));
  EXPECT_FALSE(Map.test(8));
  EXPECT_FALSE(Map.test(1000)); // past the last word
  EXPECT_EQ(Map.size(), 2u);
  EXPECT_EQ(Map.epoch(), 2u);
}

TEST(BranchCoverageMapTest, InsertValuesAndToSet) {
  BranchCoverageMap Map;
  const uint32_t Keys[] = {130, 3, 130, 65, 3};
  Map.insert(std::begin(Keys), std::end(Keys));
  EXPECT_EQ(Map.size(), 3u);
  EXPECT_EQ(Map.values(), (std::vector<uint32_t>{3, 65, 130}));
  EXPECT_EQ(Map.toSet(), (std::set<uint32_t>{3, 65, 130}));
  // Equality is by content: set order does not matter, a missing key does.
  BranchCoverageMap Other;
  Other.set(65);
  Other.set(130);
  EXPECT_NE(Other, Map);
  Other.set(3);
  EXPECT_EQ(Other, Map);
}

TEST(BranchCoverageMapTest, ExportDeltaMergeDeltaRoundTrip) {
  BranchCoverageMap Source, Sink;
  Source.set(10);
  Source.set(20);
  uint64_t Mark = Source.epoch();

  // Nothing new past the current epoch.
  std::vector<uint32_t> Delta;
  EXPECT_EQ(Source.exportDelta(Mark, Delta), 0u);
  EXPECT_TRUE(Delta.empty());

  Source.set(30);
  Source.set(40);
  EXPECT_EQ(Source.exportDelta(Mark, Delta), 2u);
  // First-set order, not ascending key order.
  EXPECT_EQ(Delta, (std::vector<uint32_t>{30, 40}));

  // A delta from epoch 0 replays the full history and reproduces the
  // source exactly.
  Delta.clear();
  EXPECT_EQ(Source.exportDelta(0, Delta), 4u);
  EXPECT_EQ(Sink.mergeDelta(Delta.begin(), Delta.end()), 4u);
  EXPECT_EQ(Sink, Source);

  // Re-merging the same delta is idempotent: nothing fresh.
  EXPECT_EQ(Sink.mergeDelta(Delta.begin(), Delta.end()), 0u);
  EXPECT_EQ(Sink.size(), 4u);
}

TEST(BranchCoverageMapTest, MergeDeltaCountsOnlyFreshKeys) {
  BranchCoverageMap Map;
  Map.set(1);
  const uint32_t Incoming[] = {1, 2, 3, 2};
  EXPECT_EQ(Map.mergeDelta(std::begin(Incoming), std::end(Incoming)), 2u);
  EXPECT_EQ(Map.size(), 3u);
}

TEST(BranchCoverageMapTest, DeltaChainTracksGrowth) {
  // A consumer that advances its anchor after every export sees every
  // key exactly once, whatever the batching.
  BranchCoverageMap Source, Sink;
  uint64_t Anchor = Source.epoch();
  size_t TotalReceived = 0;
  for (uint32_t Round = 0; Round != 5; ++Round) {
    for (uint32_t K = Round * 10; K != Round * 10 + Round + 1; ++K)
      Source.set(K);
    std::vector<uint32_t> Delta;
    Source.exportDelta(Anchor, Delta);
    Anchor = Source.epoch();
    TotalReceived += Delta.size();
    Sink.mergeDelta(Delta.begin(), Delta.end());
  }
  EXPECT_EQ(TotalReceived, Source.size());
  EXPECT_EQ(Sink, Source);
}
