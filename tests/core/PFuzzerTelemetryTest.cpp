//===- tests/core/PFuzzerTelemetryTest.cpp - Campaign telemetry tests -----===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign-level telemetry contract: the consolidated
/// TelemetrySnapshot agrees field-for-field with the individual *StatsOut
/// sinks it subsumes (they are thin views of the same accounting, filled
/// at the same points), wiring a snapshot sink or a heartbeat emitter
/// never perturbs the FuzzReport, and the campaign runners aggregate
/// per-seed snapshots exactly like they aggregate the per-layer stats.
///
//===----------------------------------------------------------------------===//

#include "core/PFuzzer.h"
#include "eval/Campaign.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

using namespace pfuzz;

namespace {

struct RunWithStats {
  FuzzReport Report;
  TelemetrySnapshot Telemetry;
  ResumeStats Resume;
  QueueStats Queue;
  ShardStats Shards;
};

struct RunConfig {
  uint32_t Shards = 1;
  uint32_t ResumeCache = 0;
};

RunWithStats runInstrumented(const Subject &S, uint64_t Execs, uint64_t Seed,
                             const RunConfig &C,
                             HeartbeatEmitter *Heartbeat = nullptr,
                             bool WithTelemetry = true) {
  RunWithStats Out;
  PFuzzerOptions Options;
  Options.Shards = C.Shards;
  Options.ResumeCacheSize = C.ResumeCache;
  Options.ResumeStatsOut = &Out.Resume;
  Options.QueueStatsOut = &Out.Queue;
  Options.ShardStatsOut = &Out.Shards;
  if (WithTelemetry)
    Options.TelemetryOut = &Out.Telemetry;
  Options.Heartbeat = Heartbeat;
  PFuzzer Tool(Options);
  FuzzerOptions Opts;
  Opts.Seed = Seed;
  Opts.MaxExecutions = Execs;
  Out.Report = Tool.run(S, Opts);
  return Out;
}

void expectIdenticalReports(const FuzzReport &A, const FuzzReport &B) {
  EXPECT_EQ(A.Executions, B.Executions);
  EXPECT_EQ(A.ValidInputs, B.ValidInputs);
  EXPECT_EQ(A.ValidBranches, B.ValidBranches);
  EXPECT_EQ(A.CoverageTimeline, B.CoverageTimeline);
}

/// The snapshot's embedded per-layer stats must equal the values the
/// dedicated sinks saw — same sources, same fill points.
void expectSnapshotMatchesSinks(const RunWithStats &R) {
  const TelemetrySnapshot &T = R.Telemetry;
  EXPECT_EQ(T.Executions, R.Report.Executions);
  EXPECT_EQ(T.ValidInputs, R.Report.ValidInputs.size());
  EXPECT_EQ(T.FrontierSize, R.Report.ValidBranches.size());

  EXPECT_EQ(T.Resume.Probes, R.Resume.Probes);
  EXPECT_EQ(T.Resume.Hits, R.Resume.Hits);
  EXPECT_EQ(T.Resume.BytesSkipped, R.Resume.BytesSkipped);

  EXPECT_EQ(T.Queue.Pushes, R.Queue.Pushes);
  EXPECT_EQ(T.Queue.Rescores, R.Queue.Rescores);
  EXPECT_EQ(T.Queue.Trims, R.Queue.Trims);
  EXPECT_EQ(T.Queue.PeakBytes, R.Queue.PeakBytes);
  EXPECT_EQ(T.Queue.PeakCandidates, R.Queue.PeakCandidates);

  EXPECT_EQ(T.Sharding.SyncPoints, R.Shards.SyncPoints);
  EXPECT_EQ(T.Sharding.DeltasPublished, R.Shards.DeltasPublished);
  EXPECT_EQ(T.Sharding.DeltasMerged, R.Shards.DeltasMerged);
  EXPECT_EQ(T.Sharding.MaxFrontierLag, R.Shards.MaxFrontierLag);
}

} // namespace

TEST(PFuzzerTelemetryTest, SnapshotMatchesStatsSinksAcrossConfigSweep) {
  // Five subjects crossed with the perf layers the snapshot consolidates:
  // plain, resuming, and sharded.
  const RunConfig Configs[] = {
      {},                  // plain sequential engine
      {.ResumeCache = 32}, // prefix-resumption ladder
      {.Shards = 2},       // sharded engine
  };
  const Subject *Subjects[] = {&arithSubject(), &dyckSubject(),
                               &iniSubject(), &csvSubject(), &jsonSubject()};
  for (const Subject *S : Subjects) {
    for (const RunConfig &C : Configs) {
      SCOPED_TRACE(std::string(S->name()) + " shards=" +
                   std::to_string(C.Shards) + " resume=" +
                   std::to_string(C.ResumeCache));
      RunWithStats R = runInstrumented(*S, 2000, 1, C);
      expectSnapshotMatchesSinks(R);
    }
  }
}

TEST(PFuzzerTelemetryTest, SnapshotSinkDoesNotPerturbReport) {
  for (uint32_t Shards : {1u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(Shards));
    RunConfig C;
    C.Shards = Shards;
    RunWithStats Without =
        runInstrumented(jsonSubject(), 3000, 5, C, nullptr,
                        /*WithTelemetry=*/false);
    RunWithStats With = runInstrumented(jsonSubject(), 3000, 5, C);
    expectIdenticalReports(Without.Report, With.Report);
  }
}

TEST(PFuzzerTelemetryTest, HeartbeatDoesNotPerturbReport) {
  std::string Path = ::testing::TempDir() + "pfuzz_hb_report_" +
                     std::to_string(::getpid()) + ".ndjson";
  for (uint32_t Shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(Shards));
    RunConfig C;
    C.Shards = Shards;
    RunWithStats Without = runInstrumented(tinycSubject(), 2500, 3, C);
    HeartbeatEmitter HB;
    ASSERT_TRUE(HB.open(Path, 250));
    RunWithStats With = runInstrumented(tinycSubject(), 2500, 3, C, &HB);
    EXPECT_GT(HB.beats(), 0u);
    EXPECT_TRUE(HB.close());
    expectIdenticalReports(Without.Report, With.Report);
    expectSnapshotMatchesSinks(With);
  }
  std::remove(Path.c_str());
}

TEST(PFuzzerTelemetryTest, ShardedSnapshotAggregatesShardLoops) {
  // The sharded engine folds per-shard snapshots: executions sum to the
  // campaign total while the frontier reports the merged union (filled
  // after the shard reports merge), and the sharding subtree carries the
  // same totals as the dedicated ShardStats sink.
  RunConfig C;
  C.Shards = 4;
  RunWithStats R = runInstrumented(dyckSubject(), 4000, 2, C);
  EXPECT_EQ(R.Telemetry.Executions, R.Report.Executions);
  EXPECT_EQ(R.Telemetry.FrontierSize, R.Report.ValidBranches.size());
  EXPECT_GT(R.Telemetry.Sharding.SyncPoints, 0u);
  expectSnapshotMatchesSinks(R);
}

TEST(PFuzzerTelemetryTest, CampaignRunnerAggregatesSeedSnapshots) {
  // CampaignResult::Telemetry accumulates per-seed snapshots in seed
  // order: executions sum over every run, and the total matches the
  // runner's own TotalExecutions accounting.
  ToolOptions Tools;
  CampaignResult Cell = runCampaign(ToolKind::PFuzzer, arithSubject(), 1500,
                                    1, /*Runs=*/3, /*Jobs=*/1, Tools);
  EXPECT_EQ(Cell.Telemetry.Executions, Cell.TotalExecutions);
  EXPECT_EQ(Cell.Telemetry.Resume.Probes, Cell.Resume.Probes);
  EXPECT_EQ(Cell.Telemetry.Queue.Pushes, Cell.Queue.Pushes);
  EXPECT_GE(Cell.Telemetry.FrontierSize,
            Cell.Report.ValidBranches.size());
}

TEST(PFuzzerTelemetryTest, CampaignTelemetryIdenticalAcrossJobs) {
  // The Jobs contract extends to the consolidated snapshot: per-seed
  // snapshots reduce in seed order, so parallel fan-out must aggregate
  // to the same totals as sequential.
  ToolOptions Tools;
  CampaignResult Seq = runCampaign(ToolKind::PFuzzer, dyckSubject(), 2000, 7,
                                   /*Runs=*/3, /*Jobs=*/1, Tools);
  CampaignResult Par = runCampaign(ToolKind::PFuzzer, dyckSubject(), 2000, 7,
                                   /*Runs=*/3, /*Jobs=*/3, Tools);
  expectIdenticalReports(Seq.Report, Par.Report);
  EXPECT_EQ(Seq.Telemetry.Executions, Par.Telemetry.Executions);
  EXPECT_EQ(Seq.Telemetry.ValidInputs, Par.Telemetry.ValidInputs);
  EXPECT_EQ(Seq.Telemetry.FrontierSize, Par.Telemetry.FrontierSize);
  EXPECT_EQ(Seq.Telemetry.Queue.Pushes, Par.Telemetry.Queue.Pushes);
  EXPECT_EQ(Seq.Telemetry.Resume.Probes, Par.Telemetry.Resume.Probes);
}
