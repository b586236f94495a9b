//===- tests/mining/DerivationTreeTest.cpp - Derivation tree tests --------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "mining/DerivationTree.h"

#include "subjects/Subject.h"

#include <gtest/gtest.h>

using namespace pfuzz;

TEST(DerivationTreeTest, EmptyTraceYieldsNothing) {
  RunResult RR;
  EXPECT_FALSE(DerivationTree::fromRun(RR, "x").has_value());
}

TEST(DerivationTreeTest, FromRunRequiresFullModeDeathTest) {
#ifdef NDEBUG
  GTEST_SKIP() << "the mode assertion is compiled out without assertions";
#else
  // A Comparisons run has no call trace; reading one as an empty tree
  // would silently mine nothing.
  RunResult RR =
      arithSubject().execute("(2-94)", InstrumentationMode::Comparisons);
  ASSERT_EQ(RR.ExitCode, 0);
  EXPECT_DEATH(DerivationTree::fromRun(RR, "(2-94)"), "call trace");
#endif
}

TEST(DerivationTreeTest, HandRolledTrace) {
  // parse [0,3) { lex [0,1), lex [2,3) } over "a b".
  RunResult RR;
  RR.FunctionNames = {"parse", "lex"};
  RR.CallTrace = {{0, 0}, {1, 0}, {-1, 1}, {1, 2}, {-1, 3}, {-1, 3}};
  auto Tree = DerivationTree::fromRun(RR, "a b");
  ASSERT_TRUE(Tree.has_value());
  // Root + parse + 2 lex activations.
  ASSERT_EQ(Tree->nodes().size(), 4u);
  const DerivationNode &Root = Tree->root();
  EXPECT_EQ(Tree->functionNames()[Root.NameId], "<start>");
  EXPECT_EQ(Root.Begin, 0u);
  EXPECT_EQ(Root.End, 3u);
  ASSERT_EQ(Root.Children.size(), 1u);
  const DerivationNode &Parse = Tree->nodes()[Root.Children[0]];
  EXPECT_EQ(Tree->functionNames()[Parse.NameId], "parse");
  ASSERT_EQ(Parse.Children.size(), 2u);
  const DerivationNode &Lex1 = Tree->nodes()[Parse.Children[0]];
  EXPECT_EQ(Tree->textOf(Lex1), "a");
  const DerivationNode &Lex2 = Tree->nodes()[Parse.Children[1]];
  EXPECT_EQ(Tree->textOf(Lex2), "b");
}

TEST(DerivationTreeTest, UnbalancedTraceRejected) {
  RunResult RR;
  RR.FunctionNames = {"f"};
  RR.CallTrace = {{0, 0}}; // enter without exit
  EXPECT_FALSE(DerivationTree::fromRun(RR, "x").has_value());
  RR.CallTrace = {{-1, 0}}; // exit without enter
  EXPECT_FALSE(DerivationTree::fromRun(RR, "x").has_value());
}

TEST(DerivationTreeTest, CursorPastEndClamped) {
  RunResult RR;
  RR.FunctionNames = {"f"};
  RR.CallTrace = {{0, 0}, {-1, 99}}; // parser read past the end
  auto Tree = DerivationTree::fromRun(RR, "ab");
  ASSERT_TRUE(Tree.has_value());
  EXPECT_EQ(Tree->nodes()[1].End, 2u);
}

TEST(DerivationTreeTest, ArithRunProducesSensibleTree) {
  RunResult RR = arithSubject().execute("(2-94)");
  ASSERT_EQ(RR.ExitCode, 0);
  auto Tree = DerivationTree::fromRun(RR, "(2-94)");
  ASSERT_TRUE(Tree.has_value());
  // The whole input is spanned and parseExpr/parseOperand appear.
  EXPECT_EQ(Tree->textOf(Tree->root()), "(2-94)");
  bool SawExpr = false, SawOperand = false;
  for (const std::string &Name : Tree->functionNames()) {
    if (Name == "parseExpr")
      SawExpr = true;
    if (Name == "parseOperand")
      SawOperand = true;
  }
  EXPECT_TRUE(SawExpr);
  EXPECT_TRUE(SawOperand);
}

TEST(DerivationTreeTest, NestedSpansAreContained) {
  RunResult RR = jsonSubject().execute("{\"a\":[1,2]}");
  ASSERT_EQ(RR.ExitCode, 0);
  auto Tree = DerivationTree::fromRun(RR, "{\"a\":[1,2]}");
  ASSERT_TRUE(Tree.has_value());
  for (const DerivationNode &Node : Tree->nodes()) {
    EXPECT_LE(Node.Begin, Node.End);
    for (uint32_t ChildIdx : Node.Children) {
      const DerivationNode &Child = Tree->nodes()[ChildIdx];
      EXPECT_GE(Child.Begin, Node.Begin);
      EXPECT_LE(Child.End, Node.End);
    }
  }
}

TEST(DerivationTreeTest, DumpRendersEveryNode) {
  RunResult RR = arithSubject().execute("1+2");
  auto Tree = DerivationTree::fromRun(RR, "1+2");
  ASSERT_TRUE(Tree.has_value());
  std::string Dump = Tree->dump();
  EXPECT_NE(Dump.find("<start>"), std::string::npos);
  EXPECT_NE(Dump.find("parseExpr"), std::string::npos);
}

TEST(DerivationTreeTest, TokenizingSubjectsStillYieldBalancedTrees) {
  // tinyc/mjs call traces include the interleaved lexer; the trees must
  // still reconstruct (spans may include lookahead, see Section 7.2).
  for (const char *Name : {"tinyc", "mjs"}) {
    const Subject *S = findSubject(Name);
    const char *Program = Name[0] == 't' ? "if(1)a=2;" : "var x=1;";
    RunResult RR = S->execute(Program);
    ASSERT_EQ(RR.ExitCode, 0) << Name;
    auto Tree = DerivationTree::fromRun(RR, Program);
    ASSERT_TRUE(Tree.has_value()) << Name;
    EXPECT_GT(Tree->nodes().size(), 3u) << Name;
  }
}

TEST(DerivationTreeTest, EmptySpanActivationsAllowed) {
  // A function that consumes nothing (pure lookahead) still becomes a
  // node with an empty span.
  RunResult RR;
  RR.FunctionNames = {"peeker"};
  RR.CallTrace = {{0, 1}, {-1, 1}};
  auto Tree = DerivationTree::fromRun(RR, "abc");
  ASSERT_TRUE(Tree.has_value());
  EXPECT_EQ(Tree->nodes()[1].Begin, Tree->nodes()[1].End);
  EXPECT_EQ(Tree->textOf(Tree->nodes()[1]), "");
}
