//===- tests/core/PFuzzerTelemetryTest.cpp - Campaign telemetry tests -----===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign-level telemetry contract: the TelemetrySnapshot agrees
/// with the report it describes, wiring a snapshot sink or a heartbeat
/// emitter never perturbs the FuzzReport, the sharded engine folds its
/// shard loops into one snapshot, and the campaign runners aggregate
/// per-seed snapshots in seed order, identically at any Jobs value.
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
};

RunWithStats runInstrumented(const Subject &S, uint64_t Execs, uint64_t Seed,
                             uint32_t Shards,
                             HeartbeatEmitter *Heartbeat = nullptr,
                             bool WithTelemetry = true) {
  RunWithStats Out;
  PFuzzerOptions Options;
  Options.Shards = Shards;
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

/// The snapshot's campaign-level counts must describe the report, and
/// every execution ran the subject: nothing is replayed.
void expectSnapshotMatchesReport(const RunWithStats &R) {
  const TelemetrySnapshot &T = R.Telemetry;
  EXPECT_EQ(T.Executions, R.Report.Executions);
  EXPECT_EQ(T.ValidInputs, R.Report.ValidInputs.size());
  EXPECT_EQ(T.FrontierSize, R.Report.ValidBranches.size());
  EXPECT_EQ(T.RunCacheLookups, 0u);
  EXPECT_EQ(T.RunCacheHits, 0u);
  EXPECT_GT(T.Queue.Pushes, 0u);
}

} // namespace

TEST(PFuzzerTelemetryTest, SnapshotMatchesReportAcrossConfigSweep) {
  // Five subjects, plain and sharded; only the sharded engine syncs.
  const Subject *Subjects[] = {&arithSubject(), &dyckSubject(),
                               &iniSubject(), &csvSubject(), &jsonSubject()};
  for (const Subject *S : Subjects) {
    for (uint32_t Shards : {1u, 2u}) {
      SCOPED_TRACE(std::string(S->name()) + " shards=" +
                   std::to_string(Shards));
      RunWithStats R = runInstrumented(*S, 2000, 1, Shards);
      expectSnapshotMatchesReport(R);
      EXPECT_EQ(R.Telemetry.Sharding.SyncPoints > 0, Shards > 1);
    }
  }
}

TEST(PFuzzerTelemetryTest, SnapshotSinkDoesNotPerturbReport) {
  for (uint32_t Shards : {1u, 3u}) {
    SCOPED_TRACE("shards=" + std::to_string(Shards));
    RunWithStats Without =
        runInstrumented(jsonSubject(), 3000, 5, Shards, nullptr,
                        /*WithTelemetry=*/false);
    RunWithStats With = runInstrumented(jsonSubject(), 3000, 5, Shards);
    expectIdenticalReports(Without.Report, With.Report);
  }
}

TEST(PFuzzerTelemetryTest, HeartbeatDoesNotPerturbReport) {
  std::string Path = ::testing::TempDir() + "pfuzz_hb_report_" +
                     std::to_string(::getpid()) + ".ndjson";
  for (uint32_t Shards : {1u, 2u}) {
    SCOPED_TRACE("shards=" + std::to_string(Shards));
    RunWithStats Without = runInstrumented(tinycSubject(), 2500, 3, Shards);
    HeartbeatEmitter HB;
    ASSERT_TRUE(HB.open(Path, 250));
    RunWithStats With =
        runInstrumented(tinycSubject(), 2500, 3, Shards, &HB);
    EXPECT_GT(HB.beats(), 0u);
    EXPECT_TRUE(HB.close());
    expectIdenticalReports(Without.Report, With.Report);
    expectSnapshotMatchesReport(With);
  }
  std::remove(Path.c_str());
}

TEST(PFuzzerTelemetryTest, ShardedSnapshotAggregatesShardLoops) {
  // The sharded engine folds per-shard snapshots: executions sum to the
  // campaign total while the frontier reports the merged union (filled
  // after the shard reports merge), and the sharding subtree carries the
  // summed sync ledger, which balances once every shard has drained.
  RunWithStats R = runInstrumented(dyckSubject(), 4000, 2, /*Shards=*/4);
  expectSnapshotMatchesReport(R);
  const ShardStats &Sh = R.Telemetry.Sharding;
  EXPECT_GT(Sh.SyncPoints, 0u);
  // Every shard publishes at least its Final packet to each of 3 peers.
  EXPECT_GE(Sh.DeltasPublished, 4u * 3);
  EXPECT_EQ(Sh.DeltasPublished, Sh.DeltasMerged);
  EXPECT_EQ(Sh.MigrationsAccepted + Sh.MigrationsRejected,
            Sh.MigrationsOffered);
}

TEST(PFuzzerTelemetryTest, CampaignRunnerAggregatesSeedSnapshots) {
  // CampaignResult::Telemetry accumulates per-seed snapshots: executions
  // sum over every run and match the runner's own TotalExecutions, and
  // the queue subtree equals the fold of the seeds' own snapshots.
  ToolOptions Tools;
  CampaignResult Cell = runCampaign(ToolKind::PFuzzer, arithSubject(), 1500,
                                    1, /*Runs=*/3, /*Jobs=*/1, Tools);
  EXPECT_EQ(Cell.Telemetry.Executions, Cell.TotalExecutions);
  EXPECT_GE(Cell.Telemetry.FrontierSize,
            Cell.Report.ValidBranches.size());
  TelemetrySnapshot Folded;
  for (uint64_t Seed : {1u, 2u, 3u})
    Folded.accumulate(
        runInstrumented(arithSubject(), 1500, Seed, 1).Telemetry);
  EXPECT_EQ(Cell.Telemetry.Executions, Folded.Executions);
  EXPECT_EQ(Cell.Telemetry.ValidInputs, Folded.ValidInputs);
  EXPECT_EQ(Cell.Telemetry.Queue.Pushes, Folded.Queue.Pushes);
  EXPECT_EQ(Cell.Telemetry.Queue.Rescores, Folded.Queue.Rescores);
  EXPECT_EQ(Cell.Telemetry.Queue.PeakBytes, Folded.Queue.PeakBytes);
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
  EXPECT_EQ(Seq.Telemetry.Queue.PeakBytes, Par.Telemetry.Queue.PeakBytes);
}
