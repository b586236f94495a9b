//===- examples/quickstart.cpp - The Section 2 walkthrough ----------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Quickstart: fuzz the Section 2 "mystery program P" (an arithmetic
/// expression parser) with pFuzzer and watch it discover the input
/// language character by character — the Figure 1 walkthrough, live.
///
///   ./quickstart [--execs=N] [--seed=N]
///
//===----------------------------------------------------------------------===//

#include "core/PFuzzer.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace pfuzz;

int main(int Argc, char **Argv) {
  CommandLine Cli(Argc, Argv);
  uint64_t Execs =
      static_cast<uint64_t>(Cli.getCount("execs", 5000, /*Min=*/1));
  uint64_t Seed = static_cast<uint64_t>(Cli.getInt("seed", 1));
  if (!Cli.ok() || !Cli.unqueried().empty()) {
    std::fprintf(stderr, "usage: quickstart [--execs=N] [--seed=N]\n");
    return 1;
  }

  const Subject &P = arithSubject();
  std::printf("Fuzzing the Section 2 mystery program P (%llu executions)."
              "\nWe know nothing about it except that it reads characters"
              " and accepts\nor rejects. pFuzzer probes it:\n\n",
              static_cast<unsigned long long>(Execs));

  // Show what a single probe looks like before fuzzing: run "A" and dump
  // the comparisons the parser made (Figure 1, step 1).
  RunResult Probe = P.execute("A");
  std::printf("Probe with input \"A\" -> rejected (exit %d)."
              " Comparisons at index 0:\n",
              Probe.ExitCode);
  for (const ComparisonEvent &E : Probe.Comparisons) {
    if (E.Taint.empty() || !E.Taint.contains(0))
      continue;
    const char *Kind = E.Kind == CompareKind::CharEq      ? "char=="
                       : E.Kind == CompareKind::CharSet   ? "in-set"
                       : E.Kind == CompareKind::CharRange ? "in-range"
                                                          : "strcmp";
    std::printf("  %-8s expected \"%s\"\n", Kind,
                escapeString(std::string(Probe.expected(E))).c_str());
  }
  std::printf("\nEach expected value is a candidate substitution — that is"
              " the whole\ntrick. Now the full search:\n\n");

  PFuzzer Tool;
  FuzzerOptions Opts;
  Opts.Seed = Seed;
  Opts.MaxExecutions = Execs;
  FuzzReport R = Tool.run(P, Opts);

  std::printf("Valid inputs discovered (every one accepted by P, by"
              " construction):\n");
  size_t Shown = 0;
  for (const std::string &Input : R.ValidInputs) {
    std::printf("  %s\n", escapeString(Input).c_str());
    if (++Shown == 20 && R.ValidInputs.size() > 20) {
      std::printf("  ... and %zu more\n", R.ValidInputs.size() - 20);
      break;
    }
  }
  std::printf("\n%zu valid inputs from %llu executions; %zu branch"
              " outcomes covered\n(out of %u).\n",
              R.ValidInputs.size(),
              static_cast<unsigned long long>(R.Executions),
              R.ValidBranches.size(), 2 * P.numBranchSites());
  std::printf("\nCompare Section 2's expected discoveries: 1, 11, +1, -1,"
              " 1+1, 1-1, (1), ...\n");
  return 0;
}
