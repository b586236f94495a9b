//===- tests/taint/TaintTest.cpp - Taint hull unit tests ------------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "taint/Taint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

using namespace pfuzz;

TEST(TaintBoundsTest, EmptyByDefault) {
  TaintBounds T;
  EXPECT_TRUE(T.empty());
  EXPECT_EQ(T, TaintBounds::forRange(0, 0));
}

TEST(TaintBoundsTest, Singleton) {
  TaintBounds T = TaintBounds::forIndex(5);
  EXPECT_FALSE(T.empty());
  EXPECT_EQ(T.minIndex(), 5u);
  EXPECT_EQ(T.maxIndex(), 5u);
  EXPECT_EQ(T, TaintBounds::forRange(5, 6));
}

TEST(TaintBoundsTest, RangeConstruction) {
  TaintBounds T = TaintBounds::forRange(2, 6);
  EXPECT_EQ(T.minIndex(), 2u);
  EXPECT_EQ(T.maxIndex(), 5u);
}

TEST(TaintBoundsTest, EmptyRangesCompareEqual) {
  TaintBounds T = TaintBounds::forRange(3, 3);
  EXPECT_TRUE(T.empty());
  EXPECT_EQ(T, TaintBounds());
  EXPECT_EQ(T, TaintBounds::forRange(9, 9));
  EXPECT_FALSE(T == TaintBounds::forIndex(3));
}

TEST(TaintBoundsTest, MergeSpansTheGap) {
  TaintBounds A = TaintBounds::forIndex(1);
  A.mergeWith(TaintBounds::forIndex(9));
  EXPECT_EQ(A.minIndex(), 1u);
  EXPECT_EQ(A.maxIndex(), 9u);
  EXPECT_EQ(A, TaintBounds::forRange(1, 10));
}

TEST(TaintBoundsTest, MergeOverlapping) {
  TaintBounds A = TaintBounds::forRange(0, 4);
  A.mergeWith(TaintBounds::forRange(2, 6));
  EXPECT_EQ(A, TaintBounds::forRange(0, 6));
}

TEST(TaintBoundsTest, MergeWithEmptyIsIdentity) {
  TaintBounds A = TaintBounds::forIndex(3);
  TaintBounds Before = A;
  A.mergeWith(TaintBounds());
  EXPECT_EQ(A, Before);
  // An empty range away from the hull does not stretch it.
  A.mergeWith(TaintBounds::forRange(50, 50));
  EXPECT_EQ(A, Before);
  TaintBounds Empty = TaintBounds::forRange(50, 50);
  Empty.mergeWith(A);
  EXPECT_EQ(Empty, A);
}

static TaintBounds merged(TaintBounds A, const TaintBounds &B) {
  A.mergeWith(B);
  return A;
}

TEST(TaintBoundsTest, MergeIsCommutative) {
  TaintBounds A = TaintBounds::forRange(0, 3);
  TaintBounds B = TaintBounds::forRange(5, 8);
  EXPECT_EQ(merged(A, B), merged(B, A));
}

TEST(TaintBoundsTest, MergeIsAssociative) {
  TaintBounds A = TaintBounds::forIndex(7);
  TaintBounds B = TaintBounds::forIndex(2);
  TaintBounds C = TaintBounds::forIndex(4);
  EXPECT_EQ(merged(merged(A, B), C), merged(A, merged(B, C)));
}

/// Property sweep: merge of arbitrary ranges has min/max of the union.
class TaintMergeProperty
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(TaintMergeProperty, MinMaxOfUnion) {
  auto [A, B] = GetParam();
  TaintBounds X = TaintBounds::forRange(A, A + 3);
  TaintBounds Y = TaintBounds::forRange(B, B + 2);
  TaintBounds M = merged(X, Y);
  EXPECT_EQ(M.minIndex(), std::min(A, B));
  EXPECT_EQ(M.maxIndex(), std::max(A + 2, B + 1));
  EXPECT_EQ(M, merged(Y, X));
}

INSTANTIATE_TEST_SUITE_P(Ranges, TaintMergeProperty,
                         ::testing::Combine(::testing::Values(0u, 2u, 7u,
                                                              100u),
                                            ::testing::Values(0u, 3u, 50u)));

/// The hull must track the min and max of the index set the paper's taint
/// accumulates, whatever the derivation order: checked against a
/// std::set union over seeded random merge sequences that mix scattered
/// single indices, contiguous runs and merges of separately built values.
TEST(TaintHullProperty, MatchesMinMaxOfIndexSetUnion) {
  struct Value {
    TaintBounds Hull;
    std::set<uint32_t> Indices;
  };
  auto ExpectMatches = [](const Value &V) {
    ASSERT_EQ(V.Hull.empty(), V.Indices.empty());
    if (V.Indices.empty())
      return;
    EXPECT_EQ(V.Hull.minIndex(), *V.Indices.begin());
    EXPECT_EQ(V.Hull.maxIndex(), *V.Indices.rbegin());
  };
  for (uint32_t Seed = 1; Seed <= 20; ++Seed) {
    std::mt19937 Rng(Seed);
    std::vector<Value> Values(4);
    for (int Step = 0; Step != 200; ++Step) {
      Value &Into = Values[Rng() % Values.size()];
      Value From;
      switch (Rng() % 4) {
      case 0: { // a scattered single index anywhere in a long input
        uint32_t I = Rng() % 100000;
        From.Hull = TaintBounds::forIndex(I);
        From.Indices = {I};
        break;
      }
      case 1: { // a token-shaped run, possibly empty
        uint32_t Begin = Rng() % 1000, Len = Rng() % 8;
        From.Hull = TaintBounds::forRange(Begin, Begin + Len);
        for (uint32_t I = Begin; I != Begin + Len; ++I)
          From.Indices.insert(I);
        break;
      }
      case 2: // another accumulated value
        From = Values[Rng() % Values.size()];
        break;
      case 3: // an untainted value (implicit flow dropped the taint)
        break;
      }
      Into.Hull.mergeWith(From.Hull);
      Into.Indices.insert(From.Indices.begin(), From.Indices.end());
      ExpectMatches(Into);
      if (Rng() % 16 == 0)
        Into = Value();
    }
    for (const Value &V : Values)
      ExpectMatches(V);
  }
}
