//===- mining/DerivationTree.h - Trees from call traces ----------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Derivation trees recovered from instrumented runs, after Höschele &
/// Zeller's AutoGram (the paper's Section 7.4: "use a tool to mine the
/// grammar from the resulting sequences"): each parser-function activation
/// becomes a node whose span is the input range the activation consumed;
/// characters consumed directly (not by callees) become terminals.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_MINING_DERIVATIONTREE_H
#define PFUZZ_MINING_DERIVATIONTREE_H

#include "runtime/ExecutionContext.h"

#include <optional>
#include <string>
#include <vector>

namespace pfuzz {

/// One activation in the derivation tree.
struct DerivationNode {
  /// Index into DerivationTree::FunctionNames.
  int32_t NameId = -1;
  /// Consumed input span [Begin, End), clamped to the input length.
  uint32_t Begin = 0;
  uint32_t End = 0;
  /// Indices of child nodes, in consumption order.
  std::vector<uint32_t> Children;
};

/// The derivation tree of one (typically valid) run.
class DerivationTree {
public:
  /// Rebuilds the tree from \p RR's call trace over \p Input. \p RR must
  /// have been recorded in Full mode, the only mode with a call trace.
  /// Returns nullopt when the trace is empty or unbalanced.
  static std::optional<DerivationTree> fromRun(const RunResult &RR,
                                               std::string_view Input);

  /// Node 0 is a synthetic root labelled "<start>" spanning the whole
  /// input.
  const std::vector<DerivationNode> &nodes() const { return Nodes; }
  const std::vector<std::string> &functionNames() const { return Names; }

  const DerivationNode &root() const { return Nodes.front(); }
  const std::string &input() const { return Input; }

  /// The text a node's span covers.
  std::string_view textOf(const DerivationNode &Node) const {
    return std::string_view(Input).substr(Node.Begin, Node.End - Node.Begin);
  }

  /// Renders the tree with indentation (debugging / examples).
  std::string dump() const;

private:
  std::vector<DerivationNode> Nodes;
  std::vector<std::string> Names;
  std::string Input;
};

} // namespace pfuzz

#endif // PFUZZ_MINING_DERIVATIONTREE_H
