//===- bench/micro_shard.cpp - Sharded campaign benchmark -----------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the sharded campaign engine (PFuzzerOptions::Shards) on the
/// two subjects where throughput matters most in CI — json and mjs —
/// across a 1/2/4 shard grid, and self-checks the contracts the engine
/// ships under (exit code 1 on any violation):
///
/// 1. --shards=1 reproduces the unsharded engine byte for byte: the
///    single-shard report is compared field-by-field against a run with
///    a default-constructed PFuzzer.
///
/// 2. Fixed (seed, N) is bit-reproducible: the 4-shard cell runs twice
///    and both reports must be identical — sync points are execution-
///    count epochs, not wall-clock, so thread interleaving never leaks
///    into the result.
///
/// 3. The ShardStats ledger balances: every published delta is merged
///    by exactly one peer (DeltasPublished == DeltasMerged once every
///    shard has drained), and every offered migration is either
///    accepted or rejected (Accepted + Rejected == Offered).
///
/// 4. Sharding trades search overlap for wall-clock, not coverage: the
///    4-shard merged frontier must stay within 5% of the single-shard
///    frontier.
///
/// 5. On a machine with >= 4 hardware threads, 4 shards must deliver at
///    least 2x the single-shard execs/sec (skipped — with a note — on
///    smaller machines, where shard loops time-slice one core).
///
///   ./micro_shard [--execs=N] [--seed=N] [--sync=N] [--json=PATH]
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "core/PFuzzer.h"
#include "core/ShardSync.h"
#include "subjects/Subject.h"
#include "support/CommandLine.h"
#include "support/Parallel.h"

#include <chrono>
#include <cstdio>

using namespace pfuzz;

namespace {

struct RunOutcome {
  FuzzReport Report;
  ShardStats Shards;
  double WallSeconds = 0;
};

RunOutcome runOnce(const Subject &S, uint64_t Execs, uint64_t Seed,
                   uint32_t Shards, uint32_t SyncInterval) {
  RunOutcome Out;
  PFuzzerOptions Options;
  if (Shards != 0) {
    Options.Shards = Shards;
    if (SyncInterval != 0)
      Options.ShardSyncInterval = SyncInterval;
  }
  Options.ShardStatsOut = &Out.Shards;
  PFuzzer Tool(Options);
  FuzzerOptions Opts;
  Opts.Seed = Seed;
  Opts.MaxExecutions = Execs;
  auto Start = std::chrono::steady_clock::now();
  Out.Report = Tool.run(S, Opts);
  Out.WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Out;
}

bool sameReport(const FuzzReport &A, const FuzzReport &B) {
  return A.Executions == B.Executions && A.ValidInputs == B.ValidInputs &&
         A.ValidBranches == B.ValidBranches &&
         A.CoverageTimeline == B.CoverageTimeline;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cli(Argc, Argv);
  uint64_t Execs =
      static_cast<uint64_t>(Cli.getCount("execs", 20000, /*Min=*/1));
  uint64_t Seed = static_cast<uint64_t>(Cli.getInt("seed", 1));
  uint32_t Sync = static_cast<uint32_t>(Cli.getCount("sync", 0));
  BenchJsonWriter Json(Cli.getString("json", ""));
  if (!Cli.ok() || !Cli.unqueried().empty()) {
    for (const std::string &Err : Cli.errors())
      std::fprintf(stderr, "error: %s\n", Err.c_str());
    std::fprintf(stderr, "usage: micro_shard [--execs=N] [--seed=N]"
                         " [--sync=N] [--json=PATH]\n");
    return 1;
  }

  unsigned Hardware = hardwareThreads();
  bool CheckSpeedup = Hardware >= 4;
  std::printf("== Sharded campaign: throughput and frontier sync ==\n");
  std::printf("(%llu execs per run, seed %llu, sync interval %s,"
              " %u hardware threads)\n\n",
              static_cast<unsigned long long>(Execs),
              static_cast<unsigned long long>(Seed),
              Sync == 0 ? "default" : std::to_string(Sync).c_str(), Hardware);
  std::printf("%-8s %7s %9s %11s %8s %9s %7s %7s  %s\n", "subject", "shards",
              "wall[s]", "execs/s", "speedup", "coverage", "deltas", "migr",
              "report");

  bool Ok = true;
  const Subject *Subjects[] = {&jsonSubject(), &mjsSubject()};
  const uint32_t ShardGrid[] = {1, 2, 4};
  for (const Subject *S : Subjects) {
    // The unsharded reference: a default-constructed engine, no shard
    // options touched at all.
    RunOutcome Plain = runOnce(*S, Execs, Seed, /*Shards=*/0, 0);
    RunOutcome Single;
    for (uint32_t N : ShardGrid) {
      RunOutcome Out = runOnce(*S, Execs, Seed, N, Sync);
      const ShardStats &St = Out.Shards;
      bool Identical = true;
      if (N == 1) {
        // Contract 1: --shards=1 is the plain engine, byte for byte.
        Identical = sameReport(Plain.Report, Out.Report);
        Single = std::move(Out);
      }
      const RunOutcome &Cur = N == 1 ? Single : Out;
      // Contract 3: the sync ledger balances after every shard drained.
      bool Balanced = St.DeltasPublished == St.DeltasMerged &&
                      St.MigrationsAccepted + St.MigrationsRejected ==
                          St.MigrationsOffered;
      // Every shard publishes at least its Final packet to each peer.
      if (N > 1 && St.DeltasPublished < uint64_t(N) * (N - 1))
        Balanced = false;
      // The budget must be spent exactly, shards or not.
      bool BudgetExact = Cur.Report.Executions == Execs;
      if (N == 4) {
        // Contract 2: fixed (seed, N) reruns bit-identically.
        RunOutcome Again = runOnce(*S, Execs, Seed, N, Sync);
        if (!sameReport(Cur.Report, Again.Report))
          Identical = false;
        // Contract 4: merged frontier within 5% of single-shard.
        if (static_cast<double>(Cur.Report.ValidBranches.size()) <
            0.95 * static_cast<double>(Single.Report.ValidBranches.size()))
          Ok = false;
      }
      Ok &= Identical && Balanced && BudgetExact;
      double Speedup =
          Cur.WallSeconds > 0 ? Single.WallSeconds / Cur.WallSeconds : 0;
      // Contract 5: >= 2x at 4 shards, only meaningful with real cores.
      if (N == 4 && CheckSpeedup && Speedup < 2.0)
        Ok = false;
      std::printf("%-8s %7u %9.3f %11.0f %7.2fx %9zu %7llu %7llu  %s%s\n",
                  S->name().data(), N, Cur.WallSeconds,
                  Cur.WallSeconds > 0 ? Execs / Cur.WallSeconds : 0, Speedup,
                  Cur.Report.ValidBranches.size(),
                  static_cast<unsigned long long>(St.DeltasPublished),
                  static_cast<unsigned long long>(St.MigrationsAccepted),
                  Identical ? (N == 1 ? "identical" : "reproducible")
                            : "MISMATCH",
                  Balanced ? "" : " UNBALANCED");
      Json.add({.Bench = "micro_shard",
                .Subject = std::string(S->name()) + "/s" + std::to_string(N),
                .ExecsPerSec = Cur.WallSeconds > 0 ? Execs / Cur.WallSeconds
                                                   : 0,
                .WallMs = Cur.WallSeconds * 1000.0,
                .Shards = static_cast<double>(N),
                .ShardDeltas = static_cast<double>(St.DeltasPublished),
                .ShardMigrations = static_cast<double>(St.MigrationsAccepted),
                .ShardFrontierLag = static_cast<double>(St.MaxFrontierLag)});
    }
    std::printf("\n");
  }
  if (!CheckSpeedup)
    std::printf("note: < 4 hardware threads — the 2x speedup gate was"
                " skipped (identity, reproducibility, ledger and coverage"
                " checks all ran)\n");
  if (!Ok) {
    std::fprintf(stderr, "error: a sharded run violated its contract (see"
                         " MISMATCH/UNBALANCED rows or the coverage and"
                         " speedup gates above)\n");
    return 1;
  }
  return Json.write() ? 0 : 1;
}
