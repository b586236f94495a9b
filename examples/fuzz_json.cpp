//===- examples/fuzz_json.cpp - Keyword discovery on cJSON ----------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fuzzes the json subject and reports when each keyword (true, false,
/// null) is first synthesised — the capability Section 5.3 highlights
/// ("pFuzzer, by contrast, is able to cover all tokens"). Also prints the
/// token-coverage summary for the campaign.
///
///   ./fuzz_json [--execs=N] [--seed=N]
///
//===----------------------------------------------------------------------===//

#include "core/PFuzzer.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "tokens/TokenCoverage.h"

#include <cstdio>

using namespace pfuzz;

int main(int Argc, char **Argv) {
  CommandLine Cli(Argc, Argv);
  uint64_t Execs =
      static_cast<uint64_t>(Cli.getCount("execs", 30000, /*Min=*/1));
  uint64_t Seed = static_cast<uint64_t>(Cli.getInt("seed", 1));
  if (!Cli.ok() || !Cli.unqueried().empty()) {
    std::fprintf(stderr, "usage: fuzz_json [--execs=N] [--seed=N]\n");
    return 1;
  }

  const Subject &S = jsonSubject();
  PFuzzer Tool;
  TokenCoverage Tokens("json");
  FuzzerOptions Opts;
  Opts.Seed = Seed;
  Opts.MaxExecutions = Execs;
  Opts.OnValidInput = [&Tokens](std::string_view Input) {
    Tokens.addInput(Input);
  };

  std::printf("Fuzzing the json subject (cJSON stand-in) with pFuzzer,"
              " %llu executions...\n\n",
              static_cast<unsigned long long>(Execs));
  FuzzReport R = Tool.run(S, Opts);

  // Report first discovery of each keyword among the emitted inputs.
  for (const char *Keyword : {"true", "false", "null"}) {
    bool Found = false;
    for (size_t I = 0; I != R.ValidInputs.size(); ++I) {
      if (R.ValidInputs[I].find(Keyword) != std::string::npos) {
        std::printf("keyword %-5s first appears in emitted input #%zu:"
                    " %s\n",
                    Keyword, I + 1,
                    escapeString(R.ValidInputs[I]).c_str());
        Found = true;
        break;
      }
    }
    if (!Found)
      std::printf("keyword %-5s not found in this campaign (try more"
                  " --execs)\n",
                  Keyword);
  }

  std::printf("\nToken coverage: %zu of %zu inventory tokens\n",
              Tokens.found().size(), Tokens.inventory().size());
  std::printf("  length <= 3: %.1f%%   length > 3: %.1f%%\n",
              Tokens.shortTokenRatio() * 100,
              Tokens.longTokenRatio() * 100);
  std::printf("\nBranch coverage of valid inputs: %.1f%% (%zu of %u"
              " outcomes)\n",
              R.coverageRatio(S) * 100, R.ValidBranches.size(),
              2 * S.numBranchSites());
  std::printf("\nNote: the UTF-16 escape feature set stays uncovered by"
              " design — the\npaper's Section 5.2 taint limitation is"
              " reproduced faithfully.\n");
  return 0;
}
