//===- tests/core/BranchCoverageMapTest.cpp - Coverage bitmap unit tests --===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dense branch-outcome bitmap underneath the fuzzing loop:
/// membership, incremental size and epoch accounting, and content
/// equality.
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
