//===- eval/Campaign.h - Tool x subject campaign runner ----------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one fuzzer against one subject under an execution budget while
/// accounting token coverage over every valid input, and repeats the
/// campaign over several seeds reporting the best run — the paper's
/// evaluation protocol (Section 5.1: three runs, best reported; budgets
/// replace the 48 h wall-clock).
///
/// The evaluation is embarrassingly parallel: every (tool, subject, seed)
/// run owns its fuzzer, Rng and TokenCoverage and shares nothing mutable,
/// so runCampaign fans the seeds out with parallelFor
/// (support/Parallel.h) and runCampaignGrid fans out whole tool x
/// subject cells. Results are reduced in seed order, never completion
/// order, so any Jobs value produces results identical to Jobs=1.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_EVAL_CAMPAIGN_H
#define PFUZZ_EVAL_CAMPAIGN_H

#include "core/Fuzzer.h"
#include "core/PFuzzer.h"
#include "tokens/TokenCoverage.h"

#include <memory>

namespace pfuzz {

/// The tools of the evaluation.
enum class ToolKind {
  PFuzzer,
  Afl,
  Klee,
};

/// Per-tool configuration the campaign runners thread through to the
/// fuzzer instances they create. The defaults are safe for every caller.
/// PFuzzerTelemetryOut and PFuzzerHeartbeat leave reports byte-identical.
/// PFuzzerMaxQueue and PFuzzerShards change the search, deterministically
/// for a fixed seed.
struct ToolOptions {
  /// PFuzzerOptions::MaxQueue: candidate-queue cap (a trim past it keeps
  /// the first half in pop order). 0 keeps the PFuzzerOptions default.
  /// Changes which candidates survive trims.
  size_t PFuzzerMaxQueue = 0;

  /// PFuzzerOptions::Shards: independent campaigns per pFuzzer campaign,
  /// each at its own shard seed and budget share, merged into one report.
  /// 1 (the default) is the plain campaign; N > 1 is deterministic for
  /// fixed (seed, N) but a different search than unsharded.
  uint32_t PFuzzerShards = 1;

  /// When set, receives the telemetry snapshot of a pFuzzer run. The
  /// campaign runners manage a per-seed sink and aggregate it into
  /// CampaignResult::Telemetry, so callers normally leave this null and
  /// read CampaignResult::Telemetry instead; when constructing fuzzers
  /// directly, the pointee must outlive the fuzzer's run.
  TelemetrySnapshot *PFuzzerTelemetryOut = nullptr;

  /// Heartbeat emitter threaded through to every pFuzzer the runners
  /// create (PFuzzerOptions::Heartbeat). Unlike the telemetry sink this
  /// is shared, not per-seed: the emitter is internally synchronized and
  /// stamps each record with the shard index, so concurrent seed runs
  /// interleave records in one NDJSON stream. Null disables heartbeats.
  /// Purely observational: reports are byte-identical with or without.
  HeartbeatEmitter *PFuzzerHeartbeat = nullptr;
};

/// Creates a fresh fuzzer instance for \p Kind.
std::unique_ptr<Fuzzer> makeFuzzer(ToolKind Kind,
                                   const ToolOptions &Tools = {});

/// Display name ("pFuzzer", "AFL", "KLEE").
std::string_view toolName(ToolKind Kind);

/// Per-tool execution budgets. AFL gets a larger budget than pFuzzer,
/// mirroring the throughput gap the paper reports ("generating 1,000
/// times more inputs than pFuzzer" under equal wall-clock).
struct CampaignBudgets {
  uint64_t PFuzzerExecs = 100000;
  uint64_t AflExecs = 1000000;
  uint64_t KleeExecs = 50000;

  uint64_t executionsFor(ToolKind Kind) const;

  /// Scales every budget by \p Factor (the --budget-scale bench flag).
  /// The multiply is overflow-checked: a budget that would exceed 2^64-1
  /// saturates at UINT64_MAX (an effectively unbounded campaign) instead
  /// of silently wrapping to a tiny budget.
  void scale(uint64_t Factor);
};

/// The outcome of the best run of a tool on a subject.
struct CampaignResult {
  ToolKind Tool = ToolKind::PFuzzer;
  std::string SubjectName;
  FuzzReport Report;
  /// Distinct inventory tokens found across the best run's valid inputs.
  std::set<std::string> TokensFound;

  /// Aggregate compute time across every run of the cell (the sum of the
  /// per-seed wall-clocks, so the value is comparable across Jobs
  /// settings). Timing is diagnostic only — it is never part of the
  /// deterministic result.
  double WallSeconds = 0;

  /// Executions summed over every run of the cell (the best run's own
  /// count stays in Report.Executions).
  uint64_t TotalExecutions = 0;

  /// Telemetry accumulated over every run of the cell: executions,
  /// valid inputs, frontier, and the Queue subtree (see
  /// TelemetrySnapshot::accumulate for the per-field sum/max
  /// semantics). Diagnostic only — never part of the deterministic
  /// result.
  TelemetrySnapshot Telemetry;

  /// Throughput over all runs of the cell; 0 when nothing was timed.
  double execsPerSec() const {
    return WallSeconds > 0 ? static_cast<double>(TotalExecutions) / WallSeconds
                           : 0;
  }

  double coverageRatio(const Subject &S) const {
    return Report.coverageRatio(S);
  }
};

/// Runs \p Kind on \p S for \p Runs seeds (Seed, Seed+1, ...), each with
/// \p Executions budget, and returns the run with the highest valid-input
/// branch coverage (ties: most tokens).
///
/// \p Jobs caps how many seed runs execute concurrently: 1 (the default)
/// runs them on the calling thread, 0 means one per hardware thread.
/// Each seed's run is fully self-contained, and the best run is selected
/// by reducing in seed order, so every Jobs value returns a result
/// identical to Jobs=1.
CampaignResult runCampaign(ToolKind Kind, const Subject &S,
                           uint64_t Executions, uint64_t Seed, int Runs,
                           int Jobs = 1, const ToolOptions &Tools = {});

/// One tool x subject cell of an evaluation grid.
struct CampaignCell {
  ToolKind Tool = ToolKind::PFuzzer;
  const Subject *S = nullptr;
  uint64_t Executions = 0;
};

/// Runs every cell of \p Cells for \p Runs seeds each, fanning all
/// (cell, seed) tasks out with at most \p Jobs running concurrently
/// (0, the default, = one per hardware thread). Returns one best-run
/// result per cell, in the order of \p Cells; like runCampaign, the
/// reduction is deterministic in seed order regardless of Jobs.
std::vector<CampaignResult>
runCampaignGrid(const std::vector<CampaignCell> &Cells, uint64_t Seed,
                int Runs, int Jobs = 0, const ToolOptions &Tools = {});

} // namespace pfuzz

#endif // PFUZZ_EVAL_CAMPAIGN_H
