//===- bench/fig2_coverage.cpp - Figure 2: coverage per subject/tool ------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 2 of the paper: branch coverage obtained by the
/// valid inputs of each tool (AFL, KLEE, pFuzzer) on each subject, as a
/// grouped bar chart. The paper ran 48 h per tool/subject; here execution
/// budgets stand in (AFL gets a 10x budget, reflecting its throughput
/// advantage — scale everything with --budget-scale=N for longer runs).
///
/// --subject=NAME and --tools=LIST cut the grid down to one cell — CI's
/// shard perf smoke runs `--tools=pfuzzer --subject=json --shards=4
/// --json=...`. The paper shape checks only run on the full grid.
///
/// Expected shape (paper Section 5.2): AFL ahead on ini and csv, AFL
/// clearly ahead on mjs, pFuzzer ahead on tinyC, KLEE near zero on mjs.
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "eval/Campaign.h"
#include "eval/TableWriter.h"
#include "support/CommandLine.h"
#include "support/Parallel.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

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
  ToolCfg.PFuzzerShards = static_cast<uint32_t>(
      Cli.getCount("shards", ToolCfg.PFuzzerShards, /*Min=*/1));
  std::string SubjectFilter = Cli.getString("subject", "");
  std::string ToolsFilter = Cli.getString("tools", "afl,klee,pfuzzer");
  bool Timeline = Cli.getBool("timeline", false);
  std::string TelemetryPath = Cli.getString("telemetry", "");
  uint64_t HeartbeatEvery = static_cast<uint64_t>(
      Cli.getCount("heartbeat", 4096, /*Min=*/1));
  BenchJsonWriter Json(Cli.getString("json", ""));
  bool FlagsOk = Cli.ok() && Cli.unqueried().empty();

  HeartbeatEmitter Heartbeat;
  if (FlagsOk && !TelemetryPath.empty()) {
    if (!Heartbeat.open(TelemetryPath, HeartbeatEvery)) {
      std::fprintf(stderr, "error: cannot open telemetry file '%s'\n",
                   TelemetryPath.c_str());
      return 1;
    }
    ToolCfg.PFuzzerHeartbeat = &Heartbeat;
  }

  // Resolve the tool list before the usage check so a typo in --tools
  // reports through the same path as an unknown flag.
  std::vector<ToolKind> Tools;
  for (const std::string &Name : splitString(ToolsFilter, ',')) {
    if (Name == "afl")
      Tools.push_back(ToolKind::Afl);
    else if (Name == "klee")
      Tools.push_back(ToolKind::Klee);
    else if (Name == "pfuzzer")
      Tools.push_back(ToolKind::PFuzzer);
    else {
      std::fprintf(stderr, "error: unknown tool '%s'\n", Name.c_str());
      FlagsOk = false;
    }
  }
  std::vector<const Subject *> Subjects;
  for (const Subject *S : evaluationSubjects())
    if (SubjectFilter.empty() || S->name() == SubjectFilter)
      Subjects.push_back(S);
  if (Subjects.empty()) {
    std::fprintf(stderr, "error: unknown subject '%s'\n",
                 SubjectFilter.c_str());
    FlagsOk = false;
  }
  if (!FlagsOk) {
    for (const std::string &Err : Cli.errors())
      std::fprintf(stderr, "error: %s\n", Err.c_str());
    std::fprintf(stderr, "usage: fig2_coverage [--budget-scale=N]"
                         " [--runs=N] [--seed=N] [--jobs=N]"
                         " [--shards=N] [--subject=NAME] [--tools=LIST]"
                         " [--timeline] [--telemetry=FILE] [--heartbeat=N]"
                         " [--json=PATH]\n");
    return 1;
  }

  std::printf("== Figure 2: obtained coverage per subject and tool ==\n");
  std::printf("(branch coverage of valid inputs; budgets: pFuzzer %llu,"
              " KLEE %llu, AFL %llu execs, best of %d run(s), %d job(s))\n\n",
              static_cast<unsigned long long>(Budgets.PFuzzerExecs),
              static_cast<unsigned long long>(Budgets.KleeExecs),
              static_cast<unsigned long long>(Budgets.AflExecs), Runs,
              Jobs <= 0 ? static_cast<int>(hardwareThreads()) : Jobs);

  size_t NumTools = Tools.size();
  // One flat grid: every (tool, subject, seed) run is an independent task,
  // so --jobs=N overlaps slow cells (AFL's 10x budget) with fast ones.
  std::vector<CampaignCell> Grid;
  for (const Subject *S : Subjects)
    for (ToolKind Tool : Tools)
      Grid.push_back({Tool, S, Budgets.executionsFor(Tool)});
  auto GridStart = std::chrono::steady_clock::now();
  std::vector<CampaignResult> Results =
      runCampaignGrid(Grid, Seed, Runs, Jobs, ToolCfg);
  double GridSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - GridStart)
                           .count();

  std::vector<std::string> Headers = {"Subject"};
  for (ToolKind Tool : Tools)
    Headers.push_back(std::string(toolName(Tool)) + " %");
  Headers.push_back("Wall");
  Headers.push_back("Execs/s");
  TableWriter Table(Headers);
  struct BarRow {
    std::string Subject;
    std::vector<double> Ratios;
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Timelines;
    uint64_t Outcomes = 0;
  };
  std::vector<BarRow> Bars;
  for (size_t SubIdx = 0; SubIdx != Subjects.size(); ++SubIdx) {
    const Subject *S = Subjects[SubIdx];
    BarRow Row;
    Row.Subject = S->name();
    std::vector<std::string> Cells = {std::string(S->name())};
    double RowSeconds = 0;
    uint64_t RowExecs = 0;
    for (size_t T = 0; T != NumTools; ++T) {
      const CampaignResult &R = Results[SubIdx * NumTools + T];
      Row.Ratios.push_back(R.coverageRatio(*S));
      Row.Timelines.push_back(R.Report.CoverageTimeline);
      Row.Outcomes = 2ull * S->numBranchSites();
      RowSeconds += R.WallSeconds;
      RowExecs += R.TotalExecutions;
      Json.add(
          {.Bench = "fig2_coverage",
           .Subject = std::string(toolName(Tools[T])) + "/" + Row.Subject,
           .ExecsPerSec = R.execsPerSec(),
           .WallMs = R.WallSeconds * 1000.0,
           .QueueBytesPeak = static_cast<double>(R.Telemetry.Queue.PeakBytes),
           .Shards = Tools[T] == ToolKind::PFuzzer
                         ? static_cast<double>(ToolCfg.PFuzzerShards)
                         : 0});
      Cells.push_back(formatDouble(Row.Ratios[T] * 100, 1));
      std::fprintf(stderr,
                   "  done: %s on %s (%llu execs, %zu valid, %s, %s)\n",
                   std::string(toolName(Tools[T])).c_str(),
                   std::string(S->name()).c_str(),
                   static_cast<unsigned long long>(R.TotalExecutions),
                   R.Report.ValidInputs.size(),
                   formatSeconds(R.WallSeconds).c_str(),
                   formatExecsPerSec(R.TotalExecutions, R.WallSeconds)
                       .c_str());
    }
    Cells.push_back(formatSeconds(RowSeconds));
    Cells.push_back(formatExecsPerSec(RowExecs, RowSeconds));
    Bars.push_back(Row);
    Table.addRow(std::move(Cells));
  }
  Table.print(stdout);
  uint64_t GridExecs = 0;
  double CpuSeconds = 0;
  for (const CampaignResult &R : Results) {
    GridExecs += R.TotalExecutions;
    CpuSeconds += R.WallSeconds;
  }
  std::printf("\ngrid wall-clock %s (cpu %s), %s aggregate\n",
              formatSeconds(GridSeconds).c_str(),
              formatSeconds(CpuSeconds).c_str(),
              formatExecsPerSec(GridExecs, GridSeconds).c_str());

  std::printf("\nCoverage by each tool:\n");
  for (const BarRow &Row : Bars) {
    std::printf("%s\n", Row.Subject.c_str());
    for (size_t T = 0; T != NumTools; ++T)
      printBar(stdout, std::string(toolName(Tools[T])).c_str(),
               Row.Ratios[T]);
  }

  if (Timeline) {
    std::printf("\nCoverage growth over each tool's own budget (left ="
                " campaign start):\n");
    for (const BarRow &Row : Bars) {
      std::printf("%s (of %llu outcomes)\n", Row.Subject.c_str(),
                  static_cast<unsigned long long>(Row.Outcomes));
      for (size_t T = 0; T != NumTools; ++T)
        printSeries(stdout, std::string(toolName(Tools[T])).c_str(),
                    Row.Timelines[T], Row.Outcomes);
    }
  }

  // Shape checks against the paper's Figure 2 — meaningful only on the
  // full tool x subject grid.
  if (NumTools == 3 && SubjectFilter.empty()) {
    auto Ratio = [&](const char *Name, int Tool) {
      for (const BarRow &Row : Bars)
        if (Row.Subject == Name)
          return Row.Ratios[static_cast<size_t>(Tool)];
      return 0.0;
    };
    std::printf("\nShape checks vs paper:\n");
    std::printf("  AFL >= pFuzzer on ini: %s\n",
                Ratio("ini", 0) >= Ratio("ini", 2) ? "yes" : "NO");
    std::printf("  AFL >= pFuzzer on csv: %s\n",
                Ratio("csv", 0) >= Ratio("csv", 2) ? "yes" : "NO");
    std::printf("  pFuzzer > AFL on tinyc: %s\n",
                Ratio("tinyc", 2) > Ratio("tinyc", 0) ? "yes" : "NO");
    std::printf("  AFL > pFuzzer on mjs: %s\n",
                Ratio("mjs", 0) > Ratio("mjs", 2) ? "yes" : "NO");
    std::printf("  KLEE lowest on mjs: %s\n",
                (Ratio("mjs", 1) <= Ratio("mjs", 0) &&
                 Ratio("mjs", 1) <= Ratio("mjs", 2))
                    ? "yes"
                    : "NO");
  }
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
