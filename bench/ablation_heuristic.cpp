//===- bench/ablation_heuristic.cpp - Heuristic term ablations ------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation study of the Algorithm 1 heuristic terms (the design choices
/// Section 3 motivates): runs pFuzzer with each term disabled on json and
/// tinyc, reporting valid inputs, branch coverage of valid inputs, and
/// long-token discovery. The paper argues each term matters:
///
///  - length penalty: avoids a depth-first blowup (Section 3);
///  - 2x replacement bonus: steers towards string comparisons / keywords;
///  - stack-size term: helps closing nested structures (Section 3.2);
///  - parent count: keeps substitution chains short;
///  - path novelty: avoids re-exploring identical parse paths.
///
//===----------------------------------------------------------------------===//

#include "core/PFuzzer.h"
#include "eval/TableWriter.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/Parallel.h"
#include "tokens/TokenCoverage.h"

#include <algorithm>
#include <cstdio>

using namespace pfuzz;

namespace {

struct Variant {
  const char *Name;
  HeuristicOptions Options;
};

std::vector<Variant> variants() {
  std::vector<Variant> Out;
  Out.push_back({"full", HeuristicOptions()});
  HeuristicOptions NoLen;
  NoLen.LengthPenalty = false;
  Out.push_back({"no-length", NoLen});
  HeuristicOptions NoRep;
  NoRep.ReplacementBonus = false;
  Out.push_back({"no-replacement", NoRep});
  HeuristicOptions NoStack;
  NoStack.StackSizeTerm = false;
  Out.push_back({"no-stack", NoStack});
  HeuristicOptions NoParents;
  NoParents.ParentCountTerm = false;
  Out.push_back({"no-parents", NoParents});
  HeuristicOptions NoPath;
  NoPath.PathNovelty = false;
  Out.push_back({"no-path-novelty", NoPath});
  HeuristicOptions CoverageOnly;
  CoverageOnly.LengthPenalty = false;
  CoverageOnly.ReplacementBonus = false;
  CoverageOnly.StackSizeTerm = false;
  CoverageOnly.ParentCountTerm = false;
  CoverageOnly.PathNovelty = false;
  Out.push_back({"coverage-only", CoverageOnly});
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cli(Argc, Argv);
  uint64_t Execs =
      static_cast<uint64_t>(Cli.getCount("execs", 20000, /*Min=*/1));
  uint64_t Seed = static_cast<uint64_t>(Cli.getInt("seed", 1));
  int Runs = static_cast<int>(Cli.getCount("runs", 3, /*Min=*/1));
  size_t Jobs = static_cast<size_t>(Cli.getCount("jobs", 1));
  if (!Cli.ok() || !Cli.unqueried().empty()) {
    std::fprintf(stderr, "usage: ablation_heuristic [--execs=N] [--seed=N]"
                         " [--runs=N] [--jobs=N]\n");
    return 1;
  }

  std::printf("== Heuristic ablation (pFuzzer, %llu execs per cell,"
              " mean of %d seeds) ==\n",
              static_cast<unsigned long long>(Execs), Runs);
  const std::vector<Variant> Vars = variants();
  for (const char *SubjectName : {"json", "tinyc"}) {
    const Subject *S = findSubject(SubjectName);
    const TokenInventory &Inv = TokenInventory::forSubject(SubjectName);
    std::printf("\n-- %s --\n", SubjectName);
    TableWriter Table({"Variant", "Valid inputs", "Coverage %",
                       "Tokens", "Long tokens"});
    // PFuzzer instances carry custom heuristics, so this bench cannot go
    // through runCampaignGrid; it fans (variant, seed) tasks out itself
    // and reduces in index order (means stay deterministic).
    struct RunOutcome {
      double Valid = 0, Cov = 0, Tokens = 0, Long = 0;
    };
    size_t NumRuns = static_cast<size_t>(Runs);
    std::vector<RunOutcome> Outcomes(Vars.size() * NumRuns);
    auto RunTask = [&](size_t TaskIdx) {
      const Variant &V = Vars[TaskIdx / NumRuns];
      PFuzzer Tool(V.Options);
      TokenCoverage Tokens(SubjectName);
      FuzzerOptions Opts;
      Opts.Seed = Seed + static_cast<uint64_t>(TaskIdx % NumRuns);
      Opts.MaxExecutions = Execs;
      Opts.OnValidInput = [&Tokens](std::string_view Input) {
        Tokens.addInput(Input);
      };
      FuzzReport R = Tool.run(*S, Opts);
      uint32_t Long = 0;
      for (const std::string &Tok : Tokens.found())
        if (Inv.lengthOf(Tok) > 3)
          ++Long;
      Outcomes[TaskIdx] = {static_cast<double>(R.ValidInputs.size()),
                           R.coverageRatio(*S) * 100,
                           static_cast<double>(Tokens.found().size()),
                           static_cast<double>(Long)};
    };
    parallelFor(0, Outcomes.size(), RunTask, Jobs);
    for (size_t VarIdx = 0; VarIdx != Vars.size(); ++VarIdx) {
      double SumValid = 0, SumCov = 0, SumTokens = 0, SumLong = 0;
      for (size_t Run = 0; Run != NumRuns; ++Run) {
        const RunOutcome &Out = Outcomes[VarIdx * NumRuns + Run];
        SumValid += Out.Valid;
        SumCov += Out.Cov;
        SumTokens += Out.Tokens;
        SumLong += Out.Long;
      }
      Table.addRow({Vars[VarIdx].Name, formatDouble(SumValid / Runs, 1),
                    formatDouble(SumCov / Runs, 1),
                    formatDouble(SumTokens / Runs, 1),
                    formatDouble(SumLong / Runs, 1)});
      std::fprintf(stderr, "  done: %s on %s\n", Vars[VarIdx].Name,
                   SubjectName);
    }
    Table.print(stdout);
  }
  std::printf("\nReading: 'full' should dominate or match each single-term"
              " ablation\non long-token discovery; 'coverage-only'"
              " degenerates towards\ndepth-first search (Section 3).\n");
  return 0;
}
