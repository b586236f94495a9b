//===- mining/Grammar.cpp - Mined context-free grammars -------------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "mining/Grammar.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace pfuzz;

int32_t GrammarMiner::internName(const std::string &Name) {
  auto [It, Inserted] =
      NameIds.try_emplace(Name, static_cast<int32_t>(Names.size()));
  if (Inserted) {
    Names.push_back(Name);
    Rules.emplace_back();
  }
  return It->second;
}

void GrammarMiner::addTree(const DerivationTree &Tree) {
  ++Trees;
  // Map the tree's local name ids to the miner's global ids.
  std::vector<int32_t> Local(Tree.functionNames().size());
  for (size_t I = 0; I != Local.size(); ++I)
    Local[I] = internName(Tree.functionNames()[I]);

  for (const DerivationNode &Node : Tree.nodes()) {
    GrammarRule Rule;
    uint32_t Cursor = Node.Begin;
    auto FlushTerminal = [&](uint32_t Until) {
      if (Until > Cursor)
        Rule.Symbols.push_back(GrammarSymbol::terminal(std::string(
            std::string_view(Tree.input()).substr(Cursor, Until - Cursor))));
      Cursor = std::max(Cursor, Until);
    };
    for (uint32_t ChildIdx : Node.Children) {
      const DerivationNode &Child = Tree.nodes()[ChildIdx];
      FlushTerminal(Child.Begin);
      Rule.Symbols.push_back(
          GrammarSymbol::nonTerminal(Local[Child.NameId]));
      Cursor = std::max(Cursor, Child.End);
    }
    FlushTerminal(Node.End);
    Rules[Local[Node.NameId]].insert(std::move(Rule));
  }
}

Grammar GrammarMiner::build() const {
  std::vector<std::vector<GrammarRule>> Alternatives;
  Alternatives.reserve(Rules.size());
  for (const std::set<GrammarRule> &Set : Rules)
    Alternatives.emplace_back(Set.begin(), Set.end());
  auto StartIt = NameIds.find("<start>");
  int32_t Start = StartIt == NameIds.end() ? 0 : StartIt->second;
  return Grammar(Names, std::move(Alternatives), Start);
}

Grammar::Grammar(std::vector<std::string> NonTerminalNames,
                 std::vector<std::vector<GrammarRule>> Alternatives,
                 int32_t Start)
    : Names(std::move(NonTerminalNames)),
      Alternatives(std::move(Alternatives)), Start(Start) {
  assert(Names.size() == this->Alternatives.size() &&
         "name/alternative count mismatch");
  // Fixpoint for minimum expansion depth. Unproductive nonterminals (none
  // should exist in mined grammars) keep a large sentinel depth.
  constexpr uint32_t Unknown = 1u << 30;
  MinDepth.assign(Names.size(), Unknown);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t NT = 0; NT != Names.size(); ++NT) {
      uint32_t Best = Unknown;
      for (const GrammarRule &Rule : this->Alternatives[NT]) {
        uint32_t Deepest = 0;
        for (const GrammarSymbol &Sym : Rule.Symbols) {
          if (Sym.IsTerminal)
            continue;
          Deepest = std::max(Deepest, MinDepth[Sym.NonTerminal]);
        }
        if (Deepest != Unknown)
          Best = std::min(Best, Deepest + 1);
      }
      if (Best < MinDepth[NT]) {
        MinDepth[NT] = Best;
        Changed = true;
      }
    }
  }
}

size_t Grammar::numAlternatives() const {
  size_t Total = 0;
  for (const auto &Alts : Alternatives)
    Total += Alts.size();
  return Total;
}

std::string Grammar::toString() const {
  std::string Out;
  for (size_t NT = 0; NT != Names.size(); ++NT) {
    Out += Names[NT];
    Out += " ::=";
    bool FirstAlt = true;
    for (const GrammarRule &Rule : Alternatives[NT]) {
      Out += FirstAlt ? " " : "\n    | ";
      FirstAlt = false;
      if (Rule.Symbols.empty())
        Out += "<empty>";
      for (size_t I = 0; I != Rule.Symbols.size(); ++I) {
        if (I != 0)
          Out += " ";
        const GrammarSymbol &Sym = Rule.Symbols[I];
        if (Sym.IsTerminal) {
          // Appended piecewise for the same -Wrestrict false positive as
          // DerivationTree's dumpNode.
          Out += '"';
          Out += escapeString(Sym.Text);
          Out += '"';
        } else {
          Out += Names[Sym.NonTerminal];
        }
      }
    }
    Out += "\n";
  }
  return Out;
}
