//===- bench/ablation_aflctp.cpp - Section 6.2 AFL-CTP conjecture ---------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluates the paper's Section 6.2 discussion of AFL-CTP (laf-intel):
///
///  1. Plain AFL has no insight into string comparisons.
///  2. AFL-CTP on code-reusing parsers exposes comparison *progress*, but
///     "prefixes of different keywords are indistinguishable regarding
///     coverage" (one shared strcmp site serves all keywords).
///  3. The paper's conjecture: "if indeed it is possible to transform
///     strcmp() in such a way that for different keywords AFL recognizes
///     new coverage, AFL might be able to achieve similar results in terms
///     of token coverage as pFuzzer".
///
/// This bench runs all three AFL variants plus pFuzzer on json/tinyc/mjs
/// and reports long-token coverage, testing the conjecture directly.
///
//===----------------------------------------------------------------------===//

#include "baselines/AflFuzzer.h"
#include "core/PFuzzer.h"
#include "eval/TableWriter.h"
#include "support/CommandLine.h"
#include "support/Parallel.h"
#include "tokens/TokenCoverage.h"

#include <cstdio>
#include <iterator>
#include <memory>

using namespace pfuzz;

namespace {

/// A tool variant, described by a factory so each task can build its own
/// instance (fuzzers are single-use and not shareable across threads).
struct Variant {
  const char *Name;
  std::unique_ptr<Fuzzer> (*Make)();
  uint64_t Execs;
};

std::unique_ptr<Fuzzer> makePlainAfl() {
  return std::make_unique<AflFuzzer>();
}

std::unique_ptr<Fuzzer> makeSharedCtp() {
  AflOptions Shared;
  Shared.Cmp = CmpFeedback::SharedSite;
  return std::make_unique<AflFuzzer>(Shared);
}

std::unique_ptr<Fuzzer> makePerKeywordCtp() {
  AflOptions PerKw;
  PerKw.Cmp = CmpFeedback::PerKeyword;
  return std::make_unique<AflFuzzer>(PerKw);
}

std::unique_ptr<Fuzzer> makePFuzzer() { return std::make_unique<PFuzzer>(); }

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cli(Argc, Argv);
  uint64_t AflExecs =
      static_cast<uint64_t>(Cli.getCount("afl-execs", 150000, /*Min=*/1));
  uint64_t PfExecs =
      static_cast<uint64_t>(Cli.getCount("pf-execs", 60000, /*Min=*/1));
  uint64_t Seed = static_cast<uint64_t>(Cli.getInt("seed", 1));
  size_t Jobs = static_cast<size_t>(Cli.getCount("jobs", 1));
  if (!Cli.ok() || !Cli.unqueried().empty()) {
    std::fprintf(stderr, "usage: ablation_aflctp [--afl-execs=N]"
                         " [--pf-execs=N] [--seed=N] [--jobs=N]\n");
    return 1;
  }

  std::printf("== Section 6.2: can AFL-CTP match pFuzzer's token"
              " coverage? ==\n");
  std::printf("(AFL variants %llu execs, pFuzzer %llu execs)\n",
              static_cast<unsigned long long>(AflExecs),
              static_cast<unsigned long long>(PfExecs));

  for (const char *SubjectName : {"json", "tinyc", "mjs"}) {
    const Subject *S = findSubject(SubjectName);
    const TokenInventory &Inv = TokenInventory::forSubject(SubjectName);
    std::printf("\n-- %s --\n", SubjectName);
    TableWriter Table({"Variant", "Tokens", "Long tokens", "Valid cov %"});

    const Variant Variants[] = {
        {"AFL", makePlainAfl, AflExecs},
        {"AFL-CTP (shared)", makeSharedCtp, AflExecs},
        {"AFL-CTP (per-keyword)", makePerKeywordCtp, AflExecs},
        {"pFuzzer", makePFuzzer, PfExecs},
    };
    constexpr size_t NumVariants = std::size(Variants);
    struct VariantOutcome {
      size_t Tokens = 0;
      uint32_t Long = 0;
      double Cov = 0;
    };
    VariantOutcome Outcomes[NumVariants];
    auto RunVariant = [&](size_t Idx) {
      const Variant &V = Variants[Idx];
      std::unique_ptr<Fuzzer> Tool = V.Make();
      TokenCoverage Tokens(SubjectName);
      FuzzerOptions Opts;
      Opts.Seed = Seed;
      Opts.MaxExecutions = V.Execs;
      Opts.OnValidInput = [&Tokens](std::string_view Input) {
        Tokens.addInput(Input);
      };
      FuzzReport R = Tool->run(*S, Opts);
      uint32_t Long = 0;
      for (const std::string &Tok : Tokens.found())
        if (Inv.lengthOf(Tok) > 3)
          ++Long;
      Outcomes[Idx] = {Tokens.found().size(), Long,
                       R.coverageRatio(*S) * 100};
    };
    parallelFor(0, NumVariants, RunVariant, Jobs);

    for (size_t Idx = 0; Idx != NumVariants; ++Idx) {
      char Cov[32];
      std::snprintf(Cov, sizeof(Cov), "%.1f", Outcomes[Idx].Cov);
      Table.addRow({Variants[Idx].Name,
                    std::to_string(Outcomes[Idx].Tokens) + "/" +
                        std::to_string(Inv.size()),
                    std::to_string(Outcomes[Idx].Long) + "/" +
                        std::to_string(Inv.numLong()),
                    Cov});
      std::fprintf(stderr, "  done: %s on %s\n", Variants[Idx].Name,
                   SubjectName);
    }
    Table.print(stdout);
  }
  std::printf("\nReading: per-keyword comparison feedback should close"
              " (part of) the\nlong-token gap between plain AFL and"
              " pFuzzer, as the paper conjectures;\nshared-site feedback"
              " should help far less.\n");
  return 0;
}
