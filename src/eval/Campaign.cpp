//===- eval/Campaign.cpp - Tool x subject campaign runner -----------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/Campaign.h"

#include "baselines/AflFuzzer.h"
#include "baselines/KleeFuzzer.h"
#include "core/PFuzzer.h"
#include "support/Parallel.h"

#include <chrono>

using namespace pfuzz;

std::unique_ptr<Fuzzer> pfuzz::makeFuzzer(ToolKind Kind,
                                          const ToolOptions &Tools) {
  switch (Kind) {
  case ToolKind::PFuzzer: {
    PFuzzerOptions Options;
    if (Tools.PFuzzerMaxQueue != 0)
      Options.MaxQueue = Tools.PFuzzerMaxQueue;
    Options.Shards = std::max(1u, Tools.PFuzzerShards);
    Options.TelemetryOut = Tools.PFuzzerTelemetryOut;
    Options.Heartbeat = Tools.PFuzzerHeartbeat;
    return std::make_unique<PFuzzer>(Options);
  }
  case ToolKind::Afl:
    return std::make_unique<AflFuzzer>();
  case ToolKind::Klee:
    return std::make_unique<KleeFuzzer>();
  }
  return nullptr;
}

std::string_view pfuzz::toolName(ToolKind Kind) {
  switch (Kind) {
  case ToolKind::PFuzzer:
    return "pFuzzer";
  case ToolKind::Afl:
    return "AFL";
  case ToolKind::Klee:
    return "KLEE";
  }
  return "?";
}

uint64_t CampaignBudgets::executionsFor(ToolKind Kind) const {
  switch (Kind) {
  case ToolKind::PFuzzer:
    return PFuzzerExecs;
  case ToolKind::Afl:
    return AflExecs;
  case ToolKind::Klee:
    return KleeExecs;
  }
  return 0;
}

/// Saturating multiply: campaigns cap at UINT64_MAX executions instead of
/// wrapping when --budget-scale is huge.
static uint64_t mulSaturating(uint64_t A, uint64_t B) {
  if (A != 0 && B > UINT64_MAX / A)
    return UINT64_MAX;
  return A * B;
}

void CampaignBudgets::scale(uint64_t Factor) {
  PFuzzerExecs = mulSaturating(PFuzzerExecs, Factor);
  AflExecs = mulSaturating(AflExecs, Factor);
  KleeExecs = mulSaturating(KleeExecs, Factor);
}

namespace {

/// What one (tool, subject, seed) run produced; the unit of parallelism.
struct SeedRunOutcome {
  FuzzReport Report;
  std::set<std::string> TokensFound;
  double WallSeconds = 0;
  TelemetrySnapshot Telemetry;
};

/// Runs one seed of one cell. Everything mutable (fuzzer, Rng, token
/// accounting) is owned by this call, so any number of seed runs can
/// execute concurrently.
SeedRunOutcome runOneSeed(ToolKind Kind, const Subject &S,
                          uint64_t Executions, uint64_t RunSeed,
                          const ToolOptions &Tools) {
  SeedRunOutcome Out;
  // Each seed run gets its own telemetry sink: concurrent runs must not
  // share whatever pointer the caller put in Tools.
  ToolOptions SeedTools = Tools;
  SeedTools.PFuzzerTelemetryOut = &Out.Telemetry;
  std::unique_ptr<Fuzzer> Tool = makeFuzzer(Kind, SeedTools);
  TokenCoverage Tokens(S.name());
  FuzzerOptions Opts;
  Opts.Seed = RunSeed;
  Opts.MaxExecutions = Executions;
  Opts.OnValidInput = [&Tokens](std::string_view Input) {
    Tokens.addInput(Input);
  };
  auto Start = std::chrono::steady_clock::now();
  Out.Report = Tool->run(S, Opts);
  Out.WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  Out.TokensFound = Tokens.found();
  return Out;
}

/// Folds the runs of one cell, in seed order, into the best-run result —
/// the paper's "best of three" protocol. Seed-order reduction is what
/// keeps parallel campaigns bit-identical to sequential ones.
CampaignResult reduceCell(ToolKind Kind, const Subject &S,
                          std::vector<SeedRunOutcome> &Outcomes) {
  CampaignResult Best;
  Best.Tool = Kind;
  Best.SubjectName = S.name();
  bool HaveBest = false;
  for (SeedRunOutcome &Out : Outcomes) {
    Best.WallSeconds += Out.WallSeconds;
    Best.TotalExecutions += Out.Report.Executions;
    Best.Telemetry.accumulate(Out.Telemetry);
    bool Better =
        !HaveBest ||
        Out.Report.ValidBranches.size() > Best.Report.ValidBranches.size() ||
        (Out.Report.ValidBranches.size() ==
             Best.Report.ValidBranches.size() &&
         Out.TokensFound.size() > Best.TokensFound.size());
    if (Better) {
      Best.Report = std::move(Out.Report);
      Best.TokensFound = std::move(Out.TokensFound);
      HaveBest = true;
    }
  }
  return Best;
}

/// parallelFor's cap for a Jobs argument: 0 = one per hardware thread.
size_t jobsCap(int Jobs) { return Jobs <= 0 ? 0 : static_cast<size_t>(Jobs); }

} // namespace

CampaignResult pfuzz::runCampaign(ToolKind Kind, const Subject &S,
                                  uint64_t Executions, uint64_t Seed,
                                  int Runs, int Jobs,
                                  const ToolOptions &Tools) {
  std::vector<SeedRunOutcome> Outcomes(std::max(Runs, 0));
  parallelFor(
      0, Outcomes.size(),
      [&](size_t RunIdx) {
        Outcomes[RunIdx] =
            runOneSeed(Kind, S, Executions, Seed + RunIdx, Tools);
      },
      jobsCap(Jobs));
  return reduceCell(Kind, S, Outcomes);
}

std::vector<CampaignResult>
pfuzz::runCampaignGrid(const std::vector<CampaignCell> &Cells, uint64_t Seed,
                       int Runs, int Jobs, const ToolOptions &Tools) {
  size_t NumRuns = static_cast<size_t>(std::max(Runs, 0));
  std::vector<std::vector<SeedRunOutcome>> Outcomes(Cells.size());
  for (std::vector<SeedRunOutcome> &Cell : Outcomes)
    Cell.resize(NumRuns);
  // One flat (cell, seed) index space: a slow cell (AFL's 10x budget)
  // overlaps with every other cell instead of serialising the grid.
  parallelFor(
      0, Cells.size() * NumRuns,
      [&](size_t TaskIdx) {
        size_t CellIdx = TaskIdx / NumRuns;
        size_t RunIdx = TaskIdx % NumRuns;
        const CampaignCell &Cell = Cells[CellIdx];
        Outcomes[CellIdx][RunIdx] = runOneSeed(
            Cell.Tool, *Cell.S, Cell.Executions, Seed + RunIdx, Tools);
      },
      jobsCap(Jobs));
  std::vector<CampaignResult> Results;
  Results.reserve(Cells.size());
  for (size_t CellIdx = 0; CellIdx != Cells.size(); ++CellIdx)
    Results.push_back(reduceCell(Cells[CellIdx].Tool, *Cells[CellIdx].S,
                                 Outcomes[CellIdx]));
  return Results;
}
