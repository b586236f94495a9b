//===- tests/core/PFuzzerOracleTest.cpp - Campaign vs reference -----------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign engine against the independent reference pFuzzer of
/// tests/core/ReferencePFuzzer.h: on every evaluation subject, under the
/// default cap, caps small enough to trim, a cap small enough to decay
/// the path table and every heuristic ablation, both produce
/// byte-identical FuzzReports; so do longer
/// json and mjs campaigns where incremental rescore passes dominate. The
/// engine's compact store, group-factored and incremental rescore and
/// flat side tables are representation only; the pop order (highest
/// score, then earliest push) is the one thing they must agree on with
/// the reference's ordered set.
///
//===----------------------------------------------------------------------===//

#include "ReferencePFuzzer.h"

#include "core/PFuzzer.h"
#include "subjects/Subject.h"

#include <gtest/gtest.h>

#include <string>

using namespace pfuzz;

namespace {

struct OracleConfig {
  const char *Name;
  size_t MaxQueue = 100000;
  HeuristicOptions Heur = HeuristicOptions();
};

/// The ablation bench's heuristic configs (bench/ablation_heuristic.cpp):
/// each term off on its own, then every term off at once.
HeuristicOptions ablated(unsigned OffMask) {
  HeuristicOptions H;
  H.LengthPenalty = !(OffMask & 1);
  H.ReplacementBonus = !(OffMask & 2);
  H.StackSizeTerm = !(OffMask & 4);
  H.ParentCountTerm = !(OffMask & 8);
  H.PathNovelty = !(OffMask & 16);
  return H;
}

/// The cap of the decay config.
constexpr size_t DecayCap = 64;

/// Runs the engine and the reference on one cell and compares reports,
/// trims and decays. Returns the engine's queue stats.
QueueStats expectMatchesReference(const Subject &S, const OracleConfig &C,
                                  uint64_t Execs) {
  FuzzerOptions Opts;
  Opts.Seed = 1;
  Opts.MaxExecutions = Execs;
  TelemetrySnapshot Telemetry;
  PFuzzerOptions Config;
  Config.MaxQueue = C.MaxQueue;
  Config.Heur = C.Heur;
  Config.TelemetryOut = &Telemetry;
  FuzzReport Engine = PFuzzer(Config).run(S, Opts);
  ReferencePFuzzer Reference(S, Opts, Config);
  FuzzReport Expected = Reference.run();
  EXPECT_EQ(Engine.Executions, Expected.Executions);
  EXPECT_EQ(Engine.ValidInputs, Expected.ValidInputs);
  EXPECT_EQ(Engine.ValidBranches, Expected.ValidBranches);
  EXPECT_EQ(Engine.CoverageTimeline, Expected.CoverageTimeline);
  EXPECT_EQ(Telemetry.Queue.Trims, Reference.Trims);
  EXPECT_EQ(Telemetry.Queue.PathDecays, Reference.PathDecays);
  // The decay config must exercise what it exists for.
  if (C.MaxQueue == DecayCap) {
    EXPECT_GT(Reference.PathDecays, 0u);
    EXPECT_GT(Reference.Trims, 0u);
  }
  return Telemetry.Queue;
}

} // namespace

TEST(PFuzzerOracleTest, ReportsMatchReferenceAcrossConfigs) {
  const OracleConfig Configs[] = {
      {"default"},
      {"trim-256", /*MaxQueue=*/256},
      {"trim-512", /*MaxQueue=*/512},
      {"no-length", 100000, ablated(1)},
      {"no-replacement", 100000, ablated(2)},
      {"no-stack", 100000, ablated(4)},
      {"no-parents", 100000, ablated(8)},
      {"no-path-novelty", 100000, ablated(16)},
      {"coverage-only", 100000, ablated(31)},
      {"decay-64", DecayCap},
  };
  for (const Subject *S : evaluationSubjects()) {
    for (const OracleConfig &C : Configs) {
      SCOPED_TRACE(std::string(S->name()) + " config " + C.Name);
      expectMatchesReference(*S, C, S == &jsonSubject() ? 3000 : 1500);
    }
  }
}

TEST(PFuzzerOracleTest, LongerCampaignsWhereIncrementalPassesDominate) {
  // The cells above stop after fewer than ten rescore passes. These run
  // long enough for most passes to be incremental (only path counts
  // moved) between the full ones that vBr growth, trims and decays force.
  struct Cell {
    const Subject *S;
    OracleConfig C;
    uint64_t Execs;
  };
  const Cell Cells[] = {
      {&jsonSubject(), {"default"}, 30000},
      {&mjsSubject(), {"default"}, 15000},
      {&mjsSubject(), {"decay-64", DecayCap}, 15000},
  };
  for (const Cell &L : Cells) {
    SCOPED_TRACE(std::string(L.S->name()) + " config " + L.C.Name);
    QueueStats Q = expectMatchesReference(*L.S, L.C, L.Execs);
    EXPECT_GT(Q.DirtyGroups, 0u);
    if (L.C.MaxQueue != DecayCap) {
      EXPECT_GT(Q.Rescores - Q.FullRescores, Q.FullRescores);
    }
  }
}
