//===- tests/taint/TaintedValueTest.cpp - TChar/TString tests -------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "taint/TaintedValue.h"

#include <gtest/gtest.h>

using namespace pfuzz;

TEST(TCharTest, DefaultIsEof) {
  TChar C;
  EXPECT_TRUE(C.isEof());
  EXPECT_TRUE(C.taint().empty());
}

TEST(TCharTest, ConstantHasNoTaint) {
  TChar C = TChar::constant('x');
  EXPECT_FALSE(C.isEof());
  EXPECT_EQ(C.ch(), 'x');
  EXPECT_TRUE(C.taint().empty());
}

TEST(TCharTest, TaintedCharKeepsIndex) {
  TChar C('a', TaintBounds::forIndex(7));
  EXPECT_EQ(C.value(), 'a');
  EXPECT_EQ(C.taint().minIndex(), 7u);
  EXPECT_EQ(C.taint().maxIndex(), 7u);
}

TEST(TCharTest, DropTaintModelsImplicitFlow) {
  TChar C('a', TaintBounds::forIndex(7));
  TChar D = C.dropTaint();
  EXPECT_EQ(D.value(), 'a');
  EXPECT_TRUE(D.taint().empty());
  // The original is unchanged.
  EXPECT_FALSE(C.taint().empty());
}

TEST(TCharTest, DeriveKeepsTaint) {
  TChar C('a', TaintBounds::forIndex(3));
  TChar Upper = C.derive('A');
  EXPECT_EQ(Upper.ch(), 'A');
  EXPECT_EQ(Upper.taint().minIndex(), 3u);
  EXPECT_EQ(Upper.taint().maxIndex(), 3u);
}

TEST(TStringTest, AccumulatesBytesAndTaints) {
  TString S;
  S.push_back(TChar('w', TaintBounds::forIndex(0)));
  S.push_back(TChar('h', TaintBounds::forIndex(1)));
  S.push_back(TChar('i', TaintBounds::forIndex(2)));
  EXPECT_EQ(S.str(), "whi");
  EXPECT_EQ(S.size(), 3u);
  EXPECT_EQ(S.taint().minIndex(), 0u);
  EXPECT_EQ(S.taint().maxIndex(), 2u);
}

TEST(TStringTest, LiteralAppendAddsNoTaint) {
  TString S;
  S.appendLiteral('x');
  S.appendLiteral('y');
  EXPECT_EQ(S.str(), "xy");
  EXPECT_TRUE(S.taint().empty());
}

TEST(TStringTest, ClearResetsEverything) {
  TString S;
  S.push_back(TChar('a', TaintBounds::forIndex(4)));
  S.clear();
  EXPECT_TRUE(S.empty());
  EXPECT_TRUE(S.taint().empty());
}

TEST(TStringTest, ComparesAgainstStringView) {
  TString S;
  S.push_back(TChar('o', TaintBounds::forIndex(0)));
  S.push_back(TChar('k', TaintBounds::forIndex(1)));
  EXPECT_TRUE(S == "ok");
  EXPECT_FALSE(S == "no");
}

TEST(TStringTest, MixedLiteralAndTainted) {
  TString S;
  S.appendLiteral('<');
  S.push_back(TChar('x', TaintBounds::forIndex(9)));
  S.appendLiteral('>');
  EXPECT_EQ(S.str(), "<x>");
  EXPECT_EQ(S.taint().minIndex(), 9u);
  EXPECT_EQ(S.taint().maxIndex(), 9u);
}
