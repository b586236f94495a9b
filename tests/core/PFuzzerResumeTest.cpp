//===- tests/core/PFuzzerResumeTest.cpp - Resumption invariants -----------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract of the prefix-resumption engine
/// (PFuzzerOptions::ResumeCacheSize): resuming a checkpointed run with an
/// appended suffix is purely an execution-time optimization. A resumed
/// run records byte-for-byte what a cold run records, so the FuzzReport —
/// executions, emitted inputs, coverage, timeline — and the OnValidInput
/// stream must be identical at any cache size (off, tiny, moderate,
/// unbounded), any checkpoint-ladder geometry
/// (PFuzzerOptions::ResumeStride/ResumeRungs), and on builds without
/// fiber support. Also pins the engine's eligibility gates, the direct
/// engine-vs-cold RunResult equivalence, and ladder restores under
/// eviction pressure.
///
//===----------------------------------------------------------------------===//

#include "core/PFuzzer.h"
#include "runtime/PrefixResumeCache.h"
#include "subjects/Subject.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace pfuzz;

namespace {

FuzzReport fuzzResuming(const Subject &S, uint64_t Execs, uint64_t Seed,
                        uint32_t ResumeCache, ResumeStats *Stats = nullptr,
                        std::vector<std::string> *ValidLog = nullptr,
                        uint32_t ResumeMin = 0, uint32_t Stride = 16,
                        uint32_t Rungs = 3) {
  PFuzzerOptions Options;
  Options.ResumeCacheSize = ResumeCache;
  // Tests default the bypass threshold to 0 so short campaigns exercise
  // the engine on every input; the sweep also covers the shipped default.
  Options.ResumeMinLength = ResumeMin;
  Options.ResumeStride = Stride;
  Options.ResumeRungs = Rungs;
  Options.ResumeStatsOut = Stats;
  PFuzzer Tool(Options);
  FuzzerOptions Opts;
  Opts.Seed = Seed;
  Opts.MaxExecutions = Execs;
  if (ValidLog)
    Opts.OnValidInput = [ValidLog](std::string_view Input) {
      ValidLog->emplace_back(Input);
    };
  return Tool.run(S, Opts);
}

void expectIdenticalReports(const FuzzReport &A, const FuzzReport &B) {
  EXPECT_EQ(A.Executions, B.Executions);
  EXPECT_EQ(A.ValidInputs, B.ValidInputs);
  EXPECT_EQ(A.ValidBranches, B.ValidBranches);
  EXPECT_EQ(A.CoverageTimeline, B.CoverageTimeline);
}

/// Every RunResult field, not just the report aggregates — resumed
/// executions must be indistinguishable down to arena slices and
/// interned-name order.
void expectIdenticalRunResults(const RunResult &A, const RunResult &B) {
  EXPECT_EQ(A.ExitCode, B.ExitCode);
  EXPECT_EQ(A.BranchTrace, B.BranchTrace);
  EXPECT_EQ(A.EventChars, B.EventChars);
  EXPECT_EQ(A.FunctionNames, B.FunctionNames);
  ASSERT_EQ(A.EofAccesses.size(), B.EofAccesses.size());
  for (size_t I = 0; I != A.EofAccesses.size(); ++I)
    EXPECT_EQ(A.EofAccesses[I].AccessIndex, B.EofAccesses[I].AccessIndex);
  ASSERT_EQ(A.CallTrace.size(), B.CallTrace.size());
  for (size_t I = 0; I != A.CallTrace.size(); ++I) {
    EXPECT_EQ(A.CallTrace[I].NameId, B.CallTrace[I].NameId);
    EXPECT_EQ(A.CallTrace[I].Cursor, B.CallTrace[I].Cursor);
  }
  ASSERT_EQ(A.Comparisons.size(), B.Comparisons.size());
  for (size_t I = 0; I != A.Comparisons.size(); ++I) {
    const ComparisonEvent &EA = A.Comparisons[I];
    const ComparisonEvent &EB = B.Comparisons[I];
    EXPECT_EQ(EA.Kind, EB.Kind);
    EXPECT_EQ(EA.Matched, EB.Matched);
    EXPECT_EQ(EA.OnEof, EB.OnEof);
    EXPECT_EQ(EA.Implicit, EB.Implicit);
    EXPECT_EQ(EA.StackDepth, EB.StackDepth);
    EXPECT_EQ(EA.TracePosition, EB.TracePosition);
    EXPECT_EQ(A.expected(EA), B.expected(EB));
    EXPECT_EQ(A.actual(EA), B.actual(EB));
    EXPECT_TRUE(EA.Taint == EB.Taint);
  }
}

constexpr uint32_t Unbounded = 0xFFFFFFFFu;

TEST(PFuzzerResumeTest, ReportIdenticalAcrossCacheSizes) {
  // The identity sweep of the engine's contract: {off, 1, 8, unbounded}
  // x {engine on every input, shipped bypass threshold} on two
  // resume-safe subjects.
  for (const Subject *S : {&jsonSubject(), &iniSubject()}) {
    uint64_t Execs = 3000;
    std::vector<std::string> BaseValid;
    FuzzReport Baseline =
        fuzzResuming(*S, Execs, 7, /*ResumeCache=*/0, nullptr, &BaseValid);
    for (uint32_t CacheSize : {0u, 1u, 8u, Unbounded}) {
      for (uint32_t MinLen : {0u, PFuzzerOptions().ResumeMinLength}) {
        SCOPED_TRACE(std::string(S->name()) + " resume-cache " +
                     std::to_string(CacheSize) + " min-len " +
                     std::to_string(MinLen));
        std::vector<std::string> Valid;
        FuzzReport Report =
            fuzzResuming(*S, Execs, 7, CacheSize, nullptr, &Valid, MinLen);
        expectIdenticalReports(Baseline, Report);
        EXPECT_EQ(BaseValid, Valid);
      }
    }
  }
}

TEST(PFuzzerResumeTest, ReportIdenticalAcrossLadderGeometries) {
  // Stride and rung count only move checkpoints around; the ladder off
  // (stride 0), fine, and coarse must all report identically.
  FuzzReport Baseline = fuzzResuming(jsonSubject(), 3000, 3, 64, nullptr,
                                     nullptr, 0, /*Stride=*/0, /*Rungs=*/0);
  struct {
    uint32_t Stride, Rungs;
  } Geometries[] = {{4, 1}, {16, 3}, {64, 8}};
  for (const auto &G : Geometries) {
    SCOPED_TRACE("stride " + std::to_string(G.Stride) + " rungs " +
                 std::to_string(G.Rungs));
    expectIdenticalReports(Baseline,
                           fuzzResuming(jsonSubject(), 3000, 3, 64, nullptr,
                                        nullptr, 0, G.Stride, G.Rungs));
  }
}

TEST(PFuzzerResumeTest, EngineResumesWhenAvailable) {
  if (!PrefixResumeEngine::available())
    GTEST_SKIP() << "fibers unavailable in this build";
  ResumeStats Stats;
  fuzzResuming(jsonSubject(), 3000, 11, /*ResumeCache=*/256, &Stats);
  // The search extends prefixes constantly; with a roomy cache most
  // probes must land.
  EXPECT_GT(Stats.Minted, 0u);
  EXPECT_GT(Stats.Hits, 0u);
  EXPECT_GT(Stats.BytesSkipped, 0u);
  EXPECT_GT(Stats.hitRate(), 0.2);
}

TEST(PFuzzerResumeTest, StatsStayZeroWhenDisabledOrIneligible) {
  ResumeStats Stats;
  // Disabled by size.
  fuzzResuming(jsonSubject(), 500, 3, /*ResumeCache=*/0, &Stats);
  EXPECT_EQ(Stats.Probes, 0u);
  EXPECT_EQ(Stats.Minted, 0u);
  // Ineligible subject: mjs frames own heap state, so it must never be
  // checkpointed no matter the configured size.
  EXPECT_FALSE(mjsSubject().resumeSafe());
  fuzzResuming(mjsSubject(), 500, 3, /*ResumeCache=*/64, &Stats);
  EXPECT_EQ(Stats.Probes, 0u);
  EXPECT_EQ(Stats.Minted, 0u);
}

TEST(PFuzzerResumeTest, EvictionBoundsTheCache) {
  if (!PrefixResumeEngine::available())
    GTEST_SKIP() << "fibers unavailable in this build";
  // A one-entry cache must keep working (and keep reports identical —
  // covered by the sweep above); here: it actually evicts.
  ResumeStats Stats;
  fuzzResuming(jsonSubject(), 2000, 11, /*ResumeCache=*/1, &Stats);
  EXPECT_GT(Stats.Minted, 0u);
  EXPECT_GT(Stats.Evicted, 0u);
}

TEST(PFuzzerResumeTest, EngineMatchesColdExecutionEventForEvent) {
  if (!PrefixResumeEngine::available())
    GTEST_SKIP() << "fibers unavailable in this build";
  // Drive the engine directly through a grow-by-one-character sweep, the
  // search's access pattern, and compare every RunResult against a cold
  // execution of the same input.
  const Subject &S = jsonSubject();
  PrefixResumeEngine Engine(
      [&S](ExecutionContext &Ctx) { return S.run(Ctx); }, 64);
  const std::string Final = "{\"key\": [1, 22, true], \"x\": \"ab\\u0041\"}";
  RunResult Scratch;
  for (size_t Len = 1; Len <= Final.size(); ++Len) {
    std::string Input = Final.substr(0, Len);
    SCOPED_TRACE("prefix length " + std::to_string(Len));
    // The result may live in the engine's pool, not Scratch: read it
    // through the returned reference, valid until the next execute.
    const RunResult &Resumed = Engine.execute(Input, Scratch);
    RunResult Cold = S.execute(Input, InstrumentationMode::Full);
    expectIdenticalRunResults(Cold, Resumed);
  }
  // Growing character by character, every step past the first should
  // resume from the previous step's checkpoint.
  EXPECT_GE(Engine.stats().Hits, Final.size() - 2);
  EXPECT_GT(Engine.stats().BytesSkipped, 0u);
}

TEST(PFuzzerResumeTest, MinInputBypassesShortInputs) {
  if (!PrefixResumeEngine::available())
    GTEST_SKIP() << "fibers unavailable in this build";
  // Below the break-even threshold the engine runs inputs plainly —
  // identical results, zero probes, zero checkpoints.
  const Subject &S = jsonSubject();
  PrefixResumeEngine Engine(
      [&S](ExecutionContext &Ctx) { return S.run(Ctx); }, 64, /*MinInput=*/8);
  RunResult Scratch;
  {
    const RunResult &Resumed = Engine.execute("[1]", Scratch);
    RunResult Cold = S.execute("[1]", InstrumentationMode::Full);
    expectIdenticalRunResults(Cold, Resumed);
  }
  EXPECT_EQ(Engine.stats().Probes, 0u);
  EXPECT_EQ(Engine.stats().Minted, 0u);
  // At or past the threshold the machinery engages.
  {
    const RunResult &Resumed = Engine.execute("[true, 12]", Scratch);
    RunResult Cold = S.execute("[true, 12]", InstrumentationMode::Full);
    expectIdenticalRunResults(Cold, Resumed);
  }
  EXPECT_EQ(Engine.stats().Probes, 1u);
  EXPECT_EQ(Engine.stats().Minted, 1u);
}

TEST(PFuzzerResumeTest, ResumesAcrossBranchingExtensions) {
  if (!PrefixResumeEngine::available())
    GTEST_SKIP() << "fibers unavailable in this build";
  // Multi-shot: one checkpoint serves many different suffixes, and a
  // resumed run's own checkpoint chains further extensions.
  const Subject &S = jsonSubject();
  PrefixResumeEngine Engine(
      [&S](ExecutionContext &Ctx) { return S.run(Ctx); }, 64);
  const std::string Prefix = "[true, ";
  RunResult Scratch;
  Engine.execute(Prefix, Scratch); // cold; mints the shared checkpoint
  for (const char *Suffix : {"1]", "\"s\"]", "false]", "[]]", "nul", "1, 2]"}) {
    std::string Input = Prefix + Suffix;
    SCOPED_TRACE(Input);
    const RunResult &Resumed = Engine.execute(Input, Scratch);
    RunResult Cold = S.execute(Input, InstrumentationMode::Full);
    expectIdenticalRunResults(Cold, Resumed);
  }
  EXPECT_GE(Engine.stats().Hits, 6u);
}

TEST(PFuzzerResumeTest, LadderRestoreCorrectUnderEvictionPressure) {
  // Direct engine sweep: siblings spliced below a long parent, executed
  // against ladders over every cache size from one entry up. Restores
  // from rungs that survived eviction — and cold re-runs where nothing
  // did — must match cold execution event for event.
  if (!PrefixResumeEngine::available())
    GTEST_SKIP() << "fibers unavailable in this build";
  const Subject &S = jsonSubject();
  const std::string Parent = "{\"a\": [11, 22, [33, {\"b\": \"cd\"}], 44],"
                             " \"e\": [true, false, null, 55]}";
  std::vector<std::string> Inputs;
  for (size_t L = 1; L <= Parent.size(); L += 3)
    Inputs.push_back(Parent.substr(0, L));
  // Spliced siblings: the suffix digits never occur in the parent, so
  // their checkpoints cannot serve as pure parent prefixes.
  for (size_t K = 5; K + 7 < Parent.size(); K += 7) {
    Inputs.push_back(Parent.substr(0, K) + "9");
    Inputs.push_back(Parent.substr(0, K + 3) + "8]");
  }
  std::vector<RunResult> Reference;
  Reference.reserve(Inputs.size());
  for (const std::string &In : Inputs)
    Reference.push_back(S.execute(In, InstrumentationMode::Full));
  for (size_t CacheSize : {1u, 2u, 3u, 6u, 32u}) {
    SCOPED_TRACE("cache " + std::to_string(CacheSize));
    PrefixResumeEngine Engine([&S](ExecutionContext &C) { return S.run(C); },
                              CacheSize, /*MinInput=*/0, /*RungStride=*/8,
                              /*RungCap=*/4);
    RunResult Scratch;
    for (int Round = 0; Round != 2; ++Round)
      for (size_t I = 0; I != Inputs.size(); ++I) {
        SCOPED_TRACE("round " + std::to_string(Round) + " input " +
                     std::to_string(I));
        const RunResult &Run = Engine.execute(Inputs[I], Scratch);
        expectIdenticalRunResults(Reference[I], Run);
      }
    EXPECT_GT(Engine.stats().RungsMinted, 0u);
  }
}

TEST(PFuzzerResumeTest, RungDepthHistogramRecordsLadderHits) {
  // A parent long enough for several rungs, then siblings spliced at
  // depths only rungs can serve: the hit histogram must report rung
  // depths >= 1 and the average must be positive.
  if (!PrefixResumeEngine::available())
    GTEST_SKIP() << "fibers unavailable in this build";
  const Subject &S = jsonSubject();
  const std::string Parent = "[[1, 2, 3], [1, 2, 3], [1, 2, 3], [1, 2, 3]]";
  PrefixResumeEngine Engine([&S](ExecutionContext &C) { return S.run(C); },
                            /*MaxEntries=*/64, /*MinInput=*/0,
                            /*RungStride=*/8, /*RungCap=*/4);
  RunResult Scratch;
  // Cold parent run mints rungs at 8, 16, 24, 32 plus its past-end
  // checkpoint.
  Engine.execute(Parent, Scratch);
  EXPECT_EQ(Engine.stats().RungsMinted, 4u);
  // A sibling spliced mid-parent can only resume from a rung: bucket 0
  // (past-end hits) must stay empty while some deeper bucket fills.
  Engine.execute(Parent.substr(0, 19) + "9]]", Scratch);
  const ResumeStats &St = Engine.stats();
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(St.HitsByRung[0], 0u);
  EXPECT_GT(St.avgHitRungDepth(), 0.0);
  uint64_t DeepHits = 0;
  for (size_t I = 1; I != ResumeStats::RungBuckets; ++I)
    DeepHits += St.HitsByRung[I];
  EXPECT_EQ(DeepHits, 1u);
}

} // namespace
