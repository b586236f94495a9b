//===- examples/pfuzz_cli.cpp - Command-line fuzzing driver ---------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pFuzzer-style command-line driver: run any tool against any built-in
/// subject, print the valid inputs as they are found (as the paper's
/// prototype does), and finish with coverage, token and timeline
/// statistics. Also exposes the mined-grammar pipeline via --mine.
///
///   ./pfuzz_cli --subject=json [--tool=pfuzzer|afl|klee|random]
///               [--execs=N] [--seed=N] [--runs=N] [--jobs=N]
///               [--max-queue=N] [--shards=N] [--shard-sync=N]
///               [--telemetry=FILE] [--heartbeat=N] [--telemetry-stats]
///               [--list-subjects] [--mine] [--quiet]
///
//===----------------------------------------------------------------------===//

#include "eval/Campaign.h"
#include "eval/TableWriter.h"
#include "mining/MiningPipeline.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "tokens/TokenCoverage.h"

#include <cstdio>

using namespace pfuzz;

int main(int Argc, char **Argv) {
  CommandLine Cli(Argc, Argv);
  std::string SubjectName = Cli.getString("subject", "json");
  std::string ToolName = Cli.getString("tool", "pfuzzer");
  uint64_t Execs =
      static_cast<uint64_t>(Cli.getCount("execs", 50000, /*Min=*/1));
  uint64_t Seed = static_cast<uint64_t>(Cli.getInt("seed", 1));
  int Runs = static_cast<int>(Cli.getCount("runs", 1, /*Min=*/1));
  int Jobs = static_cast<int>(Cli.getCount("jobs", 1));
  ToolOptions Tools;
  Tools.PFuzzerMaxQueue =
      static_cast<size_t>(Cli.getCount("max-queue", Tools.PFuzzerMaxQueue));
  // getCount with Min=1 rejects 0, negatives and garbage outright —
  // a campaign always has at least one shard.
  Tools.PFuzzerShards = static_cast<uint32_t>(
      Cli.getCount("shards", Tools.PFuzzerShards, /*Min=*/1));
  Tools.PFuzzerShardSyncInterval = static_cast<uint32_t>(
      Cli.getCount("shard-sync", Tools.PFuzzerShardSyncInterval));
  std::string TelemetryPath = Cli.getString("telemetry", "");
  // Interval in executions between heartbeat records; the default keeps
  // the stream small even on long campaigns.
  uint64_t HeartbeatEvery = static_cast<uint64_t>(
      Cli.getCount("heartbeat", 4096, /*Min=*/1));
  bool TelemetryStatsFlag = Cli.getBool("telemetry-stats", false);
  bool ListSubjects = Cli.getBool("list-subjects", false);
  bool Mine = Cli.getBool("mine", false);
  bool Quiet = Cli.getBool("quiet", false);
  if (!Cli.ok() || !Cli.unqueried().empty()) {
    for (const std::string &Err : Cli.errors())
      std::fprintf(stderr, "error: %s\n", Err.c_str());
    for (const std::string &Flag : Cli.unqueried())
      std::fprintf(stderr, "error: unknown flag --%s\n", Flag.c_str());
    std::fprintf(stderr,
                 "usage: pfuzz_cli [--subject=NAME] [--tool=NAME]"
                 " [--execs=N] [--seed=N] [--runs=N] [--jobs=N]"
                 " [--max-queue=N] [--shards=N] [--shard-sync=N]"
                 " [--telemetry=FILE] [--heartbeat=N] [--telemetry-stats]"
                 " [--list-subjects] [--mine] [--quiet]\n"
                 "subjects: arith dyck ini csv json tinyc mjs\n"
                 "tools: pfuzzer afl klee random\n"
                 "--max-queue: candidate-queue cap (0 = default; changes"
                 " which candidates survive trims)\n"
                 "--shards: concurrent pFuzzer shard loops (>= 1; shards=1"
                 " matches the unsharded engine byte for byte, N > 1 is a"
                 " deterministic sharded search)\n"
                 "--shard-sync: executions per coverage-sync epoch"
                 " (needs --shards > 1)\n"
                 "--telemetry: stream heartbeat NDJSON records to FILE"
                 " (observational only; results are identical with or"
                 " without)\n"
                 "--heartbeat: executions between heartbeat records"
                 " (needs --telemetry)\n"
                 "--telemetry-stats: print the campaign's telemetry"
                 " (executions, candidate store, shard sync)\n"
                 "--list-subjects: print the built-in subject names and"
                 " exit\n");
    return 1;
  }
  if (ListSubjects) {
    for (const Subject *Sub : allSubjects())
      std::printf("%.*s\n", static_cast<int>(Sub->name().size()),
                  Sub->name().data());
    return 0;
  }
  const Subject *S = findSubject(SubjectName);
  if (S == nullptr) {
    std::fprintf(stderr, "error: unknown subject '%s'\n",
                 SubjectName.c_str());
    return 1;
  }
  ToolKind Kind;
  if (ToolName == "pfuzzer")
    Kind = ToolKind::PFuzzer;
  else if (ToolName == "afl")
    Kind = ToolKind::Afl;
  else if (ToolName == "klee")
    Kind = ToolKind::Klee;
  else if (ToolName == "random")
    Kind = ToolKind::Random;
  else {
    std::fprintf(stderr, "error: unknown tool '%s'\n", ToolName.c_str());
    return 1;
  }
  // Combinations the campaign would otherwise silently ignore.
  std::vector<std::string> Conflicts;
  if (Cli.has("heartbeat") && TelemetryPath.empty())
    Conflicts.push_back("--heartbeat requires --telemetry");
  if (Cli.has("shard-sync") && Tools.PFuzzerShards == 1)
    Conflicts.push_back("--shard-sync requires --shards > 1");
  if (Kind != ToolKind::PFuzzer)
    for (const char *Flag :
         {"shards", "max-queue", "telemetry", "telemetry-stats"})
      if (Cli.has(Flag))
        Conflicts.push_back("--" + std::string(Flag) +
                            " applies only to --tool=pfuzzer");
  for (const std::string &Conflict : Conflicts)
    std::fprintf(stderr, "error: %s\n", Conflict.c_str());
  if (!Conflicts.empty())
    return 1;

  HeartbeatEmitter Heartbeat;
  if (!TelemetryPath.empty()) {
    if (!Heartbeat.open(TelemetryPath, HeartbeatEvery)) {
      std::fprintf(stderr, "error: cannot open telemetry file '%s'\n",
                   TelemetryPath.c_str());
      return 1;
    }
    Tools.PFuzzerHeartbeat = &Heartbeat;
  }

  // A campaign of one or more seeds; --jobs=N runs the seeds in parallel
  // (results are identical for every jobs value — see eval/Campaign.h).
  CampaignResult Best = runCampaign(Kind, *S, Execs, Seed, Runs, Jobs, Tools);
  const FuzzReport &R = Best.Report;

  if (!Quiet)
    for (const std::string &Input : R.ValidInputs)
      std::printf("%s\n", escapeString(Input).c_str());

  const TokenInventory &Inv = TokenInventory::forSubject(SubjectName);
  std::fprintf(stderr,
               "\n%s on %s: %llu executions, %zu emitted inputs,"
               " %.1f%% branch coverage of valid inputs, %zu/%zu tokens\n",
               ToolName.c_str(), SubjectName.c_str(),
               static_cast<unsigned long long>(Best.TotalExecutions),
               R.ValidInputs.size(), 100 * R.coverageRatio(*S),
               Best.TokensFound.size(), Inv.size());
  std::fprintf(stderr, "wall-clock %s (%s)\n",
               formatSeconds(Best.WallSeconds).c_str(),
               formatExecsPerSec(Best.TotalExecutions, Best.WallSeconds)
                   .c_str());
  if (TelemetryStatsFlag) {
    const TelemetrySnapshot &T = Best.Telemetry;
    std::fprintf(stderr,
                 "telemetry: %llu executions, %llu valid inputs,"
                 " frontier %llu\n",
                 static_cast<unsigned long long>(T.Executions),
                 static_cast<unsigned long long>(T.ValidInputs),
                 static_cast<unsigned long long>(T.FrontierSize));
    const QueueStats &Q = T.Queue;
    std::fprintf(stderr,
                 "candidate store: %llu pushes, %llu rescores (%.1f ms,"
                 " %llu group slices), %llu trims (%llu dropped),"
                 " %llu compactions (%llu bytes reclaimed),"
                 " %llu path decays\n",
                 static_cast<unsigned long long>(Q.Pushes),
                 static_cast<unsigned long long>(Q.Rescores),
                 static_cast<double>(Q.RescoreNanos) / 1e6,
                 static_cast<unsigned long long>(Q.GroupsFiltered),
                 static_cast<unsigned long long>(Q.Trims),
                 static_cast<unsigned long long>(Q.TrimmedCandidates),
                 static_cast<unsigned long long>(Q.Compactions),
                 static_cast<unsigned long long>(Q.ArenaBytesReclaimed),
                 static_cast<unsigned long long>(Q.PathDecays));
    std::fprintf(stderr,
                 "queue peaks: %llu bytes, %llu candidates, %llu arena"
                 " bytes, %llu groups, %llu path entries\n",
                 static_cast<unsigned long long>(Q.PeakBytes),
                 static_cast<unsigned long long>(Q.PeakCandidates),
                 static_cast<unsigned long long>(Q.PeakArenaBytes),
                 static_cast<unsigned long long>(Q.PeakGroups),
                 static_cast<unsigned long long>(Q.PeakPathTable));
    const ShardStats &Sh = T.Sharding;
    std::fprintf(stderr,
                 "shard sync: %llu sync points, %llu deltas published"
                 " (%llu merged), %llu branches imported, migrations"
                 " %llu accepted / %llu rejected of %llu offered,"
                 " max frontier lag %llu epochs\n",
                 static_cast<unsigned long long>(Sh.SyncPoints),
                 static_cast<unsigned long long>(Sh.DeltasPublished),
                 static_cast<unsigned long long>(Sh.DeltasMerged),
                 static_cast<unsigned long long>(Sh.BranchesImported),
                 static_cast<unsigned long long>(Sh.MigrationsAccepted),
                 static_cast<unsigned long long>(Sh.MigrationsRejected),
                 static_cast<unsigned long long>(Sh.MigrationsOffered),
                 static_cast<unsigned long long>(Sh.MaxFrontierLag));
  }
  if (Heartbeat.enabled()) {
    uint64_t Beats = Heartbeat.beats();
    if (!Heartbeat.close())
      std::fprintf(stderr, "error: writing telemetry file '%s' failed\n",
                   TelemetryPath.c_str());
    else
      std::fprintf(stderr, "telemetry: %llu heartbeat records -> %s\n",
                   static_cast<unsigned long long>(Beats),
                   TelemetryPath.c_str());
  }
  std::fprintf(stderr, "coverage timeline (execs -> branch outcomes):\n");
  size_t Step = std::max<size_t>(1, R.CoverageTimeline.size() / 8);
  for (size_t I = 0; I < R.CoverageTimeline.size(); I += Step)
    std::fprintf(stderr, "  %8llu -> %llu\n",
                 static_cast<unsigned long long>(R.CoverageTimeline[I].first),
                 static_cast<unsigned long long>(
                     R.CoverageTimeline[I].second));

  if (Mine) {
    std::fprintf(stderr, "\nmining a grammar from %zu valid inputs...\n",
                 R.ValidInputs.size());
    Grammar G = mineGrammar(*S, R.ValidInputs);
    std::fprintf(stderr, "%zu nonterminals, %zu alternatives\n",
                 G.numNonTerminals(), G.numAlternatives());
    std::printf("%s", G.toString().c_str());
  }
  return 0;
}
