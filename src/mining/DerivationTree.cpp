//===- mining/DerivationTree.cpp - Trees from call traces -----------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "mining/DerivationTree.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace pfuzz;

std::optional<DerivationTree>
DerivationTree::fromRun(const RunResult &RR, std::string_view Input) {
  assert(RR.Mode == InstrumentationMode::Full &&
         "only a Full run records the call trace");
  if (RR.CallTrace.empty())
    return std::nullopt;
  DerivationTree Tree;
  Tree.Input = std::string(Input);
  Tree.Names.push_back("<start>");
  // Function name ids shift by one because of the synthetic root.
  for (std::string_view Name : RR.FunctionNames)
    Tree.Names.push_back(std::string(Name));

  uint32_t Len = static_cast<uint32_t>(Input.size());
  auto Clamp = [Len](uint32_t Cursor) { return std::min(Cursor, Len); };

  Tree.Nodes.push_back({/*NameId=*/0, 0, Len, {}});
  std::vector<uint32_t> Stack = {0};
  for (const CallEvent &Event : RR.CallTrace) {
    if (Event.NameId >= 0) {
      uint32_t NodeIdx = static_cast<uint32_t>(Tree.Nodes.size());
      Tree.Nodes.push_back({Event.NameId + 1, Clamp(Event.Cursor),
                            Clamp(Event.Cursor), {}});
      Tree.Nodes[Stack.back()].Children.push_back(NodeIdx);
      Stack.push_back(NodeIdx);
      continue;
    }
    if (Stack.size() <= 1)
      return std::nullopt; // unbalanced: exit without matching enter
    DerivationNode &Done = Tree.Nodes[Stack.back()];
    Done.End = std::max(Done.Begin, Clamp(Event.Cursor));
    Stack.pop_back();
    // A parent's span covers at least its children's spans.
    DerivationNode &Parent = Tree.Nodes[Stack.back()];
    if (Stack.back() != 0)
      Parent.End = std::max(Parent.End, Done.End);
  }
  if (Stack.size() != 1)
    return std::nullopt; // unbalanced: enter without exit
  return Tree;
}

static void dumpNode(const DerivationTree &Tree, uint32_t NodeIdx,
                     unsigned Indent, std::string &Out) {
  const DerivationNode &Node = Tree.nodes()[NodeIdx];
  Out.append(Indent * 2, ' ');
  Out += Tree.functionNames()[Node.NameId];
  // Successive appends, not an operator+ chain: GCC 12 flags the chain's
  // inlined libstdc++ copies with a false-positive -Wrestrict.
  Out += '[';
  Out += std::to_string(Node.Begin);
  Out += ',';
  Out += std::to_string(Node.End);
  Out += ") \"";
  Out += escapeString(Tree.textOf(Node));
  Out += "\"\n";
  for (uint32_t Child : Node.Children)
    dumpNode(Tree, Child, Indent + 1, Out);
}

std::string DerivationTree::dump() const {
  std::string Out;
  dumpNode(*this, 0, 0, Out);
  return Out;
}
