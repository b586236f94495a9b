//===- bench/pipeline_grammar.cpp - Section 7.4 pipeline study ------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates the paper's Section 7.4 proposal: "rely on parser-directed
/// fuzzing for initial exploration, mine the grammar from the resulting
/// sequences, and use the mined grammar for generating longer and more
/// complex sequences that contain recursive structures."
///
/// For each subject: pFuzzer explores, a grammar is mined from the valid
/// inputs' derivation trees (AutoGram-style), the grammar generates
/// sentences, and the table reports the validity ratio, the recursion
/// payoff (longest valid input before/after), and the coverage gained.
///
//===----------------------------------------------------------------------===//

#include "eval/TableWriter.h"
#include "mining/MiningPipeline.h"
#include "support/CommandLine.h"
#include "support/Parallel.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace pfuzz;

int main(int Argc, char **Argv) {
  CommandLine Cli(Argc, Argv);
  uint64_t Explore =
      static_cast<uint64_t>(Cli.getCount("explore", 30000, /*Min=*/1));
  uint64_t Generate = static_cast<uint64_t>(Cli.getCount("generate", 2000));
  uint64_t Seed = static_cast<uint64_t>(Cli.getInt("seed", 1));
  size_t Jobs = static_cast<size_t>(Cli.getCount("jobs", 1));
  if (!Cli.ok() || !Cli.unqueried().empty()) {
    std::fprintf(stderr, "usage: pipeline_grammar [--explore=N]"
                         " [--generate=N] [--seed=N] [--jobs=N]\n");
    return 1;
  }

  std::printf("== Section 7.4 pipeline: explore -> mine grammar ->"
              " generate ==\n");
  std::printf("(pFuzzer %llu execs, then %llu grammar-generated"
              " sentences)\n\n",
              static_cast<unsigned long long>(Explore),
              static_cast<unsigned long long>(Generate));
  TableWriter Table({"Subject", "Seeds", "NTs", "Alts", "Valid %",
                     "Max seed len", "Max gen len", "Cov before",
                     "Cov after"});
  const char *Names[] = {"arith", "json", "tinyc", "mjs"};
  PipelineResult Results[4];
  // Each subject's explore+mine+generate pipeline is self-contained, so
  // --jobs=N runs whole pipelines side by side.
  auto RunPipeline = [&](size_t Idx) {
    Results[Idx] =
        runMiningPipeline(*findSubject(Names[Idx]), Explore, Generate, Seed);
  };
  parallelFor(0, 4, RunPipeline, Jobs);
  for (size_t Idx = 0; Idx != 4; ++Idx) {
    const PipelineResult &R = Results[Idx];
    Table.addRow({Names[Idx], std::to_string(R.SeedInputs.size()),
                  std::to_string(R.GrammarNonTerminals),
                  std::to_string(R.GrammarAlternatives),
                  formatDouble(R.validRatio() * 100, 1),
                  std::to_string(R.MaxSeedLen),
                  std::to_string(R.MaxGeneratedValidLen),
                  std::to_string(R.SeedBranches),
                  std::to_string(R.CombinedBranches)});
    std::fprintf(stderr, "  done: %s\n", Names[Idx]);
  }
  Table.print(stdout);
  std::printf("\nReading: 'Max gen len' > 'Max seed len' demonstrates the"
              " recursion\npayoff the paper predicts; 'Cov after' >= 'Cov"
              " before' shows the\ngrammar phase adds coverage on top of"
              " exploration.\n");
  std::printf("\nExpected split: arith/json (pure 1-char-lookahead"
              " parsers) mine clean\ngrammars with near-100%% validity;"
              " tinyc/mjs validity collapses because\nthe interleaved"
              " tokenizer pre-reads one token, so activation spans\ninclude"
              " lookahead -- the same tokenization break that defeats"
              " taint\ntracking in Section 7.2.\n");
  return 0;
}
