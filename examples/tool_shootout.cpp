//===- examples/tool_shootout.cpp - Compare all tools on one subject ------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs pFuzzer, AFL and KLEE on one subject and prints a side-by-side
/// comparison: coverage, valid inputs, tokens by length. A one-subject
/// slice of the paper's evaluation.
///
///   ./tool_shootout [--subject=tinyc] [--execs=N] [--seed=N] [--jobs=N]
///
//===----------------------------------------------------------------------===//

#include "eval/Campaign.h"
#include "eval/TableWriter.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace pfuzz;

int main(int Argc, char **Argv) {
  CommandLine Cli(Argc, Argv);
  std::string SubjectName = Cli.getString("subject", "tinyc");
  uint64_t Execs =
      static_cast<uint64_t>(Cli.getCount("execs", 20000, /*Min=*/1));
  uint64_t Seed = static_cast<uint64_t>(Cli.getInt("seed", 1));
  int Jobs = static_cast<int>(Cli.getCount("jobs", 1));
  if (!Cli.ok() || !Cli.unqueried().empty()) {
    std::fprintf(stderr, "usage: tool_shootout [--subject=NAME]"
                         " [--execs=N] [--seed=N] [--jobs=N]\n");
    return 1;
  }
  const Subject *S = findSubject(SubjectName);
  if (S == nullptr) {
    std::fprintf(stderr, "error: unknown subject '%s' (try: ini csv json"
                         " tinyc mjs arith)\n",
                 SubjectName.c_str());
    return 1;
  }

  std::printf("Shootout on subject '%s', %llu executions per tool\n\n",
              SubjectName.c_str(),
              static_cast<unsigned long long>(Execs));
  const TokenInventory &Inv = TokenInventory::forSubject(SubjectName);
  TableWriter Table({"Tool", "Coverage %", "Valid inputs", "Tokens",
                     "Long tokens", "Longest input", "Execs/s"});
  std::vector<CampaignCell> Grid;
  for (ToolKind Kind : {ToolKind::Afl, ToolKind::Klee, ToolKind::PFuzzer})
    Grid.push_back({Kind, S, Execs});
  std::vector<CampaignResult> Results = runCampaignGrid(Grid, Seed, 1, Jobs);
  for (const CampaignResult &R : Results) {
    ToolKind Kind = R.Tool;
    uint32_t Long = 0;
    for (const std::string &Tok : R.TokensFound)
      if (Inv.lengthOf(Tok) > 3)
        ++Long;
    std::string Longest;
    for (const std::string &I : R.Report.ValidInputs)
      if (I.size() > Longest.size())
        Longest = I;
    Table.addRow({std::string(toolName(Kind)),
                  formatDouble(R.coverageRatio(*S) * 100, 1),
                  std::to_string(R.Report.ValidInputs.size()),
                  std::to_string(R.TokensFound.size()) + "/" +
                      std::to_string(Inv.size()),
                  std::to_string(Long),
                  escapeString(Longest).substr(0, 32),
                  formatExecsPerSec(R.TotalExecutions, R.WallSeconds)});
  }
  Table.print(stdout);
  std::printf("\nTry --subject=mjs to watch KLEE hit path explosion, or"
              " --subject=csv\nto watch AFL shine on a shallow format.\n");
  return 0;
}
