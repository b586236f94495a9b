//===- bench/ablation_semantics.cpp - Section 7.3 study -------------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quantifies the Section 7.3 limitation: "our technique has no notion of
/// a delayed constraint. It assumes that if a character was accepted by
/// the parser, the character is correct. Hence, the input generated,
/// while it passes the parser, fails the semantic checks."
///
/// Runs pFuzzer against plain mjs (semantic checking disabled, the
/// paper's evaluation setup) and against mjssem (undeclared-identifier
/// reads fail after parsing), reporting how many syntactically valid
/// inputs survive the semantic phase.
///
//===----------------------------------------------------------------------===//

#include "core/PFuzzer.h"
#include "eval/TableWriter.h"
#include "support/CommandLine.h"
#include "support/Parallel.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace pfuzz;

int main(int Argc, char **Argv) {
  CommandLine Cli(Argc, Argv);
  uint64_t Execs =
      static_cast<uint64_t>(Cli.getCount("execs", 40000, /*Min=*/1));
  uint64_t Seed = static_cast<uint64_t>(Cli.getInt("seed", 1));
  size_t Jobs = static_cast<size_t>(Cli.getCount("jobs", 1));
  if (!Cli.ok() || !Cli.unqueried().empty()) {
    std::fprintf(stderr, "usage: ablation_semantics [--execs=N] [--seed=N]"
                         " [--jobs=N]\n");
    return 1;
  }

  std::printf("== Section 7.3: delayed semantic constraints ==\n");
  std::printf("(pFuzzer, %llu execs per campaign)\n\n",
              static_cast<unsigned long long>(Execs));

  FuzzerOptions Opts;
  Opts.Seed = Seed;
  Opts.MaxExecutions = Execs;

  // The two campaigns are independent; --jobs=2 overlaps them.
  const Subject *Subjects[2] = {&mjsSubject(), &mjsSemSubject()};
  FuzzReport Reports[2];
  auto RunCampaign = [&](size_t Idx) {
    PFuzzer Tool;
    Reports[Idx] = Tool.run(*Subjects[Idx], Opts);
  };
  parallelFor(0, 2, RunCampaign, Jobs);
  FuzzReport &Plain = Reports[0];
  FuzzReport &Sem = Reports[1];
  uint64_t SurviveSemantics = 0;
  for (const std::string &Input : Plain.ValidInputs)
    if (mjsSemSubject().accepts(Input))
      ++SurviveSemantics;

  TableWriter Table({"Campaign", "Emitted inputs", "Pass semantics",
                     "Coverage %"});
  Table.addRow({"mjs (checks off, paper setup)",
                std::to_string(Plain.ValidInputs.size()),
                std::to_string(SurviveSemantics) + " (" +
                    formatDouble(Plain.ValidInputs.empty()
                                     ? 0
                                     : 100.0 * SurviveSemantics /
                                           Plain.ValidInputs.size(),
                                 1) +
                    "%)",
                formatDouble(Plain.coverageRatio(mjsSubject()) * 100, 1)});
  Table.addRow({"mjssem (checks on)",
                std::to_string(Sem.ValidInputs.size()),
                std::to_string(Sem.ValidInputs.size()) + " (100.0%)",
                formatDouble(Sem.coverageRatio(mjsSemSubject()) * 100, 1)});
  Table.print(stdout);

  std::printf("\nReading: the gap in 'Pass semantics' for the first row is"
              " the paper's\nSection 7.3 limitation; fuzzing mjssem"
              " directly forces pFuzzer to only\nemit inputs that satisfy"
              " the delayed constraints (fewer, harder).\n");
  return 0;
}
