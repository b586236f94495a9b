//===- bench/fig3_tokens.cpp - Figure 3: tokens by length per tool --------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 3 of the paper: the number of inventory tokens each
/// tool generates in its valid inputs, grouped by token length, for all
/// five subjects — plus the Section 5.3 headline aggregates:
///
///   tokens of length <= 3: AFL 91.5%, KLEE 28.7%, pFuzzer 81.9%
///   tokens of length  > 3: AFL 5%,    KLEE 7.5%,  pFuzzer 52.5%
///
/// The key shape: only pFuzzer finds a majority of the long tokens.
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "eval/Campaign.h"
#include "eval/TableWriter.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cstdio>
#include <map>

using namespace pfuzz;

int main(int Argc, char **Argv) {
  CommandLine Cli(Argc, Argv);
  CampaignBudgets Budgets;
  Budgets.scale(
      static_cast<uint64_t>(Cli.getCount("budget-scale", 1, /*Min=*/1)));
  int Runs = static_cast<int>(Cli.getCount("runs", 1, /*Min=*/1));
  uint64_t Seed = static_cast<uint64_t>(Cli.getInt("seed", 1));
  int Jobs = static_cast<int>(Cli.getCount("jobs", 1));
  ToolOptions ToolCfg;
  std::string TelemetryPath = Cli.getString("telemetry", "");
  uint64_t HeartbeatEvery = static_cast<uint64_t>(
      Cli.getCount("heartbeat", 4096, /*Min=*/1));
  BenchJsonWriter Json(Cli.getString("json", ""));
  if (!Cli.ok() || !Cli.unqueried().empty()) {
    for (const std::string &Err : Cli.errors())
      std::fprintf(stderr, "error: %s\n", Err.c_str());
    std::fprintf(stderr, "usage: fig3_tokens [--budget-scale=N] [--runs=N]"
                         " [--seed=N] [--jobs=N]"
                         " [--telemetry=FILE] [--heartbeat=N]"
                         " [--json=PATH]\n");
    return 1;
  }
  HeartbeatEmitter Heartbeat;
  if (!TelemetryPath.empty()) {
    if (!Heartbeat.open(TelemetryPath, HeartbeatEvery)) {
      std::fprintf(stderr, "error: cannot open telemetry file '%s'\n",
                   TelemetryPath.c_str());
      return 1;
    }
    ToolCfg.PFuzzerHeartbeat = &Heartbeat;
  }

  std::printf("== Figure 3: tokens generated, grouped by token length ==\n");
  const ToolKind Tools[] = {ToolKind::Afl, ToolKind::Klee,
                            ToolKind::PFuzzer};

  // Aggregates over all subjects for the Section 5.3 headline numbers.
  uint32_t ShortFound[3] = {}, ShortTotal = 0;
  uint32_t LongFound[3] = {}, LongTotal = 0;

  std::vector<const Subject *> Subjects = evaluationSubjects();
  std::vector<CampaignCell> Grid;
  for (const Subject *S : Subjects)
    for (ToolKind Tool : Tools)
      Grid.push_back({Tool, S, Budgets.executionsFor(Tool)});
  std::vector<CampaignResult> Results =
      runCampaignGrid(Grid, Seed, Runs, Jobs, ToolCfg);

  for (size_t SubIdx = 0; SubIdx != Subjects.size(); ++SubIdx) {
    const Subject *S = Subjects[SubIdx];
    const TokenInventory &Inv = TokenInventory::forSubject(S->name());
    auto Totals = Inv.countsByLength();
    std::printf("\n-- %s --\n", std::string(S->name()).c_str());
    std::vector<std::string> Header = {"Tool"};
    for (const auto &[Length, Count] : Totals)
      Header.push_back("len" + std::to_string(Length) + "/" +
                       std::to_string(Count));
    TableWriter Table(std::move(Header));
    ShortTotal += Inv.numShort();
    LongTotal += Inv.numLong();

    for (int T = 0; T != 3; ++T) {
      const CampaignResult &R = Results[SubIdx * 3 + static_cast<size_t>(T)];
      std::map<uint32_t, uint32_t> Found;
      for (const std::string &Tok : R.TokensFound) {
        uint32_t Len = Inv.lengthOf(Tok);
        ++Found[Len];
        if (Len <= 3)
          ++ShortFound[T];
        else
          ++LongFound[T];
      }
      std::vector<std::string> Cells = {std::string(toolName(Tools[T]))};
      for (const auto &[Length, Count] : Totals)
        Cells.push_back(std::to_string(Found[Length]));
      Table.addRow(std::move(Cells));
      Json.add({.Bench = "fig3_tokens",
                .Subject = std::string(toolName(Tools[T])) + "/" +
                           std::string(S->name()),
                .ExecsPerSec = R.execsPerSec(),
                .WallMs = R.WallSeconds * 1000.0});
      std::fprintf(stderr, "  done: %s on %s (%zu tokens, %s, %s)\n",
                   std::string(toolName(Tools[T])).c_str(),
                   std::string(S->name()).c_str(), R.TokensFound.size(),
                   formatSeconds(R.WallSeconds).c_str(),
                   formatExecsPerSec(R.TotalExecutions, R.WallSeconds)
                       .c_str());
    }
    Table.print(stdout);
  }

  std::printf("\n== Section 5.3 headline aggregates ==\n");
  TableWriter Agg({"Tokens", "AFL", "KLEE", "pFuzzer", "Paper"});
  auto Pct = [](uint32_t Num, uint32_t Den) {
    return Den == 0 ? std::string("-")
                    : formatDouble(100.0 * Num / Den, 1) + "%";
  };
  Agg.addRow({"length <= 3", Pct(ShortFound[0], ShortTotal),
              Pct(ShortFound[1], ShortTotal), Pct(ShortFound[2], ShortTotal),
              "91.5 / 28.7 / 81.9"});
  Agg.addRow({"length > 3", Pct(LongFound[0], LongTotal),
              Pct(LongFound[1], LongTotal), Pct(LongFound[2], LongTotal),
              "5.0 / 7.5 / 52.5"});
  Agg.print(stdout);

  bool PFuzzerWinsLong =
      LongFound[2] > LongFound[0] && LongFound[2] > LongFound[1];
  std::printf("\nCentral result (only pFuzzer detects longer tokens):"
              " %s\n",
              PFuzzerWinsLong ? "reproduced" : "NOT reproduced");
  if (Heartbeat.enabled()) {
    uint64_t Beats = Heartbeat.beats();
    if (!Heartbeat.close()) {
      std::fprintf(stderr, "error: writing telemetry file '%s' failed\n",
                   TelemetryPath.c_str());
      return 1;
    }
    std::fprintf(stderr, "telemetry: %llu heartbeat records -> %s\n",
                 static_cast<unsigned long long>(Beats),
                 TelemetryPath.c_str());
  }
  return Json.write() ? 0 : 1;
}
