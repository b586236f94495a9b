//===- bench/ablation_tableparser.cpp - Section 7.1 study -----------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 7.1 claims that parser-directed fuzzing extends to table-driven
/// parsers: "instead of code coverage, one could implement coverage of
/// table elements. Thus, the general search heuristic would still work
/// especially as the implicit paths and character comparisons do also
/// exist in a table driven parser."
///
/// This bench fuzzes the *same language* (the Section 2 arithmetic
/// expressions) through two parsers — the recursive-descent `arith`
/// subject (code-branch coverage) and the LL(1) table-driven `ll1arith`
/// subject (table-element coverage) — and compares what every tool
/// achieves on each.
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
  uint64_t Execs =
      static_cast<uint64_t>(Cli.getCount("execs", 20000, /*Min=*/1));
  uint64_t Seed = static_cast<uint64_t>(Cli.getInt("seed", 1));
  int Jobs = static_cast<int>(Cli.getCount("jobs", 1));
  if (!Cli.ok() || !Cli.unqueried().empty()) {
    std::fprintf(stderr, "usage: ablation_tableparser [--execs=N]"
                         " [--seed=N] [--jobs=N]\n");
    return 1;
  }

  std::printf("== Section 7.1: recursive descent vs table-driven parsing"
              " ==\n");
  std::printf("(same input language; %llu execs per tool; ll1arith counts"
              " parse-table\n elements as coverage sites)\n\n",
              static_cast<unsigned long long>(Execs));
  const char *SubjectNames[] = {"arith", "ll1arith"};
  const ToolKind Tools[] = {ToolKind::PFuzzer, ToolKind::Afl,
                            ToolKind::Klee};
  std::vector<CampaignCell> Grid;
  for (const char *SubjectName : SubjectNames)
    for (ToolKind Kind : Tools)
      Grid.push_back({Kind, findSubject(SubjectName), Execs});
  std::vector<CampaignResult> Results = runCampaignGrid(Grid, Seed, 1, Jobs);

  TableWriter Table({"Parser", "Tool", "Valid inputs", "Coverage %",
                     "Tokens", "Longest valid", "Execs/s"});
  for (size_t Cell = 0; Cell != Grid.size(); ++Cell) {
    const CampaignResult &R = Results[Cell];
    const Subject *S = Grid[Cell].S;
    size_t Longest = 0;
    for (const std::string &Input : R.Report.ValidInputs)
      Longest = std::max(Longest, Input.size());
    Table.addRow({SubjectNames[Cell / 3],
                  std::string(toolName(Grid[Cell].Tool)),
                  std::to_string(R.Report.ValidInputs.size()),
                  formatDouble(R.coverageRatio(*S) * 100, 1),
                  std::to_string(R.TokensFound.size()) + "/5",
                  std::to_string(Longest),
                  formatExecsPerSec(R.TotalExecutions, R.WallSeconds)});
    std::fprintf(stderr, "  done: %s on %s (%s)\n",
                 std::string(toolName(Grid[Cell].Tool)).c_str(),
                 SubjectNames[Cell / 3],
                 formatSeconds(R.WallSeconds).c_str());
  }
  Table.print(stdout);
  std::printf("\nReading: pFuzzer should find structured valid inputs on"
              " BOTH parsers,\nvalidating the Section 7.1 claim. Absolute"
              " coverage percentages are not\ncomparable across the two"
              " rows (branch sites vs table cells, and LL(1)\ntables"
              " contain many never-consulted error cells).\n");
  return 0;
}
