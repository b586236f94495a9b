//===- bench/micro_resume.cpp - Prefix-resumption benchmark ---------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the prefix-resumption engine (PFuzzerOptions::ResumeCacheSize)
/// three ways, each doubling as a byte-identical self-check (exit code 1 on
/// any divergence from cold execution):
///
/// 1. The growth sweep — Algorithm 1's access pattern: grow a long JSON
///    document prefix by prefix, and after every growth step run a wave
///    of substitution candidates spliced *below* the frontier (the shape
///    addInputs produces at Taint.minIndex()). Measured three ways under
///    a bounded checkpoint cache: cold, single-checkpoint (stride 0, the
///    pre-ladder engine), and laddered. Growth steps resume from the
///    frontier in both engine modes; the spliced candidates are where
///    ladders pay — a single-checkpoint cache only ever holds per-length
///    past-end entries that the wave's eviction churn flushes, while
///    ladder rungs sit at shared stride positions that every sibling
///    re-hits and every resumed run re-mints.
///
/// 2. The rung sweep: a sibling-only splice wave — substitution
///    candidates of one long parent at hash-spread depths, the pattern of
///    a search parked at a frontier — executed against engines with 0, 1,
///    2 and 4 ladder rungs per run over one tight checkpoint cache. The
///    resume rate (fraction of submitted bytes skipped) and the average
///    hit rung depth must rise strictly with the rung count, and any rung
///    must beat the rungless hit rate (exit code 1 otherwise). With no
///    rungs the wave scores zero: a sibling's past-end checkpoint embeds
///    its own suffix, so only rungs put pure parent prefixes back in the
///    cache.
///
/// 3. Whole campaigns on every evaluation subject: end-to-end wall-clock,
///    hit rate and bytes skipped. Campaign inputs within small budgets
///    are dominated by short strings the engine deliberately bypasses
///    (see PFuzzerOptions::ResumeMinLength), so expect ~1x here on the
///    built-in micro-parsers; subjects that are not resume-safe (tinyc,
///    mjs) pin the "engine disengaged, identical results" path.
///
///   ./micro_resume [--execs=N] [--seed=N] [--resume-cache=N]
///                  [--resume-min=N] [--resume-stride=N] [--resume-rungs=N]
///                  [--run-cache=N] [--growth-len=N] [--sweep-cache=N]
///                  [--sweep-wave=N] [--json=PATH]
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "core/PFuzzer.h"
#include "subjects/Subject.h"
#include "support/CommandLine.h"

#include <chrono>
#include <cstdio>

using namespace pfuzz;

namespace {

/// Full-depth RunResult equality — every trace, every comparison
/// operand, every taint set: a resumed or laddered execution must record
/// exactly what a cold execution of the same input records.
bool sameRunResult(const RunResult &A, const RunResult &B) {
  if (A.ExitCode != B.ExitCode || A.BranchTrace != B.BranchTrace ||
      A.EventChars != B.EventChars || A.FunctionNames != B.FunctionNames ||
      A.EofAccesses.size() != B.EofAccesses.size() ||
      A.CallTrace.size() != B.CallTrace.size() ||
      A.Comparisons.size() != B.Comparisons.size())
    return false;
  for (size_t I = 0; I != A.EofAccesses.size(); ++I)
    if (A.EofAccesses[I].AccessIndex != B.EofAccesses[I].AccessIndex)
      return false;
  for (size_t I = 0; I != A.CallTrace.size(); ++I)
    if (A.CallTrace[I].NameId != B.CallTrace[I].NameId ||
        A.CallTrace[I].Cursor != B.CallTrace[I].Cursor)
      return false;
  for (size_t I = 0; I != A.Comparisons.size(); ++I) {
    const ComparisonEvent &EA = A.Comparisons[I];
    const ComparisonEvent &EB = B.Comparisons[I];
    if (EA.Kind != EB.Kind || EA.Matched != EB.Matched ||
        EA.OnEof != EB.OnEof || EA.Implicit != EB.Implicit ||
        EA.StackDepth != EB.StackDepth ||
        EA.TracePosition != EB.TracePosition ||
        A.expected(EA) != B.expected(EB) || A.actual(EA) != B.actual(EB) ||
        !(EA.Taint == EB.Taint))
      return false;
  }
  return true;
}

struct RunOutcome {
  FuzzReport Report;
  ResumeStats Stats;
  double WallSeconds = 0;
};

RunOutcome runOnce(const Subject &S, uint64_t Execs, uint64_t Seed,
                   uint32_t ResumeCache, uint32_t RunCache, uint32_t ResumeMin,
                   uint32_t ResumeStride, uint32_t ResumeRungs) {
  RunOutcome Out;
  PFuzzerOptions Options;
  Options.RunCacheSize = RunCache;
  Options.ResumeCacheSize = ResumeCache;
  Options.ResumeMinLength = ResumeMin;
  Options.ResumeStride = ResumeStride;
  Options.ResumeRungs = ResumeRungs;
  Options.ResumeStatsOut = &Out.Stats;
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

/// A deterministic JSON document of at least \p Len bytes — flat-ish
/// records under one array, the shape a parser-directed search settles
/// into once it has learned the object/array/string tokens.
std::string growthDocument(size_t Len) {
  std::string Doc = "{\"k\": [";
  const char *Records[] = {
      "{\"id\": 12, \"on\": true}", "[1, 22, 333, \"abc\"]",
      "\"u\\u0041text\"", "{\"x\": [false, \"y\"], \"n\": 7}"};
  for (size_t I = 0; Doc.size() < Len; ++I) {
    if (I != 0)
      Doc += ", ";
    Doc += Records[I % 4];
  }
  Doc += "]}";
  return Doc;
}

/// The growth sweep's execution sequence: every prefix of \p Doc in
/// growth order, each growth step followed by a wave of substitution
/// candidates spliced below the frontier at pseudo-random depths — the
/// sibling-heavy shape Algorithm 1 produces when a rejected comparison
/// spawns many rewrites of one parent at Taint.minIndex().
///
/// Two deliberate properties keep the single-checkpoint baseline honest:
///
///  - The replacement suffixes never occur in the document (no 5/6/8/9
///    anywhere in growthDocument's records), so a splice's past-end
///    checkpoint — whose key is the full spliced input — can never
///    masquerade as a pure document prefix and serve later siblings.
///
///  - Splice depths are spread by a hash, not drifted smoothly, so a
///    single-checkpoint cache cannot ride one per-length entry along
///    the frontier. It must keep individual growth-step checkpoints
///    alive under the splice wave's eviction churn, while ladder rungs
///    sit at shared stride positions that every sibling re-hits and
///    every resumed run re-mints.
std::vector<std::string> sweepInputs(const std::string &Doc, size_t Wave) {
  static const char *Suffixes[] = {"8", "9]", "5e8", "6.5", "98, ", "5678"};
  std::vector<std::string> Steps;
  Steps.reserve((1 + Wave) * Doc.size());
  for (size_t L = 1; L <= Doc.size(); ++L) {
    Steps.push_back(Doc.substr(0, L));
    for (size_t J = 0; J != Wave; ++J) {
      // Splitmix-style spread over [L/4, L): deterministic, but with no
      // step-to-step locality a sticky LRU entry could exploit.
      uint64_t R =
          L * 6364136223846793005ULL + (J + 1) * 1442695040888963407ULL;
      R ^= R >> 29;
      size_t Lo = L / 4;
      size_t K = L > Lo ? Lo + (R >> 33) % (L - Lo) : 0;
      if (K == 0)
        continue;
      Steps.push_back(Doc.substr(0, K) + Suffixes[(L + J) % 6]);
    }
  }
  return Steps;
}

/// Executes every step of \p Steps in order; resuming when \p Engine is
/// non-null, cold otherwise. Returns false on any divergence from the
/// cold reference results in \p Reference (filled when Check is false).
bool sweepRun(const Subject &S, const std::vector<std::string> &Steps,
              PrefixResumeEngine *Engine, std::vector<RunResult> *Reference,
              bool Check) {
  bool Identical = true;
  RunResult Scratch;
  for (size_t I = 0; I != Steps.size(); ++I) {
    const RunResult *Run;
    if (Engine) {
      // The engine's result may live in its checkpoint pool: read it
      // through the returned reference, valid until the next execute.
      Run = &Engine->execute(Steps[I], Scratch);
    } else {
      Scratch = S.execute(Steps[I], InstrumentationMode::Full);
      Run = &Scratch;
    }
    if (Check && !sameRunResult((*Reference)[I], *Run))
      Identical = false;
    else if (!Check && Reference) {
      Reference->emplace_back();
      Reference->back().assignFrom(*Run);
    }
  }
  return Identical;
}

/// The rung sweep's input: \p N substitution candidates of \p Doc,
/// spliced at hash-spread depths in [L/4, L) with the suffixes
/// sweepInputs uses, so every deep re-entry has to come from a rung.
std::vector<std::string> waveInputs(const std::string &Doc, size_t N) {
  static const char *Suffixes[] = {"8", "9]", "5e8", "6.5", "98, ", "5678"};
  std::vector<std::string> Steps;
  Steps.reserve(N);
  size_t L = Doc.size();
  for (size_t I = 0; I != N; ++I) {
    uint64_t R = (I + 1) * 6364136223846793005ULL;
    R ^= R >> 29;
    size_t Lo = L / 4;
    size_t K = Lo + (R >> 33) % (L - Lo);
    Steps.push_back(Doc.substr(0, K) + Suffixes[I % 6]);
  }
  return Steps;
}

/// Runs the rung sweep (see the file comment) over \p Doc with a
/// \p CacheSize-entry checkpoint cache. Returns false on a divergence
/// from cold execution or a non-monotone resume rate or rung depth.
bool rungSweep(const std::string &Doc, size_t CacheSize, uint32_t Stride,
               BenchJsonWriter &Json) {
  const Subject &J = jsonSubject();
  const std::vector<std::string> Steps = waveInputs(Doc, 4000);
  std::vector<RunResult> Reference;
  Reference.reserve(Steps.size());
  sweepRun(J, Steps, nullptr, &Reference, /*Check=*/false);
  uint64_t WaveBytes = 0;
  for (const std::string &In : Steps)
    WaveBytes += In.size();
  const int Rounds = 6;
  bool Ok = true, Monotone = true;
  uint64_t PrevSkipped = 0;
  double RunglessHitRate = 0, PrevDepth = -1;
  std::printf("\nrung sweep (json, %zu-byte parent, %zu siblings/round,"
              " %d rounds, cache %zu, stride %u):\n",
              Doc.size(), Steps.size(), Rounds, CacheSize, Stride);
  std::printf("  %6s %9s %11s %7s %9s %9s  %s\n", "rungs", "wall[s]",
              "execs/s", "hit%", "resume%", "avg-rung", "report");
  for (uint32_t Rungs : {0u, 1u, 2u, 4u}) {
    PrefixResumeEngine Engine([&J](ExecutionContext &C) { return J.run(C); },
                              CacheSize, /*MinInput=*/0, Stride, Rungs);
    bool Identical = true;
    auto T0 = std::chrono::steady_clock::now();
    for (int R = 0; R != Rounds; ++R)
      Identical &= sweepRun(J, Steps, &Engine, &Reference, /*Check=*/true);
    double Secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
    const ResumeStats &St = Engine.stats();
    double ResumeRate =
        static_cast<double>(St.BytesSkipped) / (Rounds * double(WaveBytes));
    double Rate = Secs > 0 ? Rounds * Steps.size() / Secs : 0;
    std::printf("  %6u %9.3f %11.0f %6.1f%% %8.1f%% %9.2f  %s\n", Rungs, Secs,
                Rate, 100 * St.hitRate(), 100 * ResumeRate,
                St.avgHitRungDepth(), Identical ? "identical" : "MISMATCH");
    Ok &= Identical;
    // Strictly more bytes resumed and strictly deeper hits with every
    // added rung; any rung at all must beat the rungless hit rate.
    if (Rungs != 0 && St.BytesSkipped <= PrevSkipped)
      Monotone = false;
    if (St.avgHitRungDepth() <= PrevDepth)
      Monotone = false;
    if (Rungs == 0)
      RunglessHitRate = St.hitRate();
    else if (St.hitRate() <= RunglessHitRate)
      Monotone = false;
    PrevSkipped = St.BytesSkipped;
    PrevDepth = St.avgHitRungDepth();
    Json.add({.Bench = "micro_resume",
              .Subject = "json/rungs-" + std::to_string(Rungs),
              .ExecsPerSec = Rate,
              .WallMs = Secs * 1000.0,
              .ResumeHitRate = St.hitRate(),
              .ResumeRungDepth = St.avgHitRungDepth()});
  }
  std::printf("  resume rate and rung depth %s with rung count\n",
              Monotone ? "strictly increasing" : "NOT MONOTONE");
  return Ok && Monotone;
}

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cli(Argc, Argv);
  uint64_t Execs = static_cast<uint64_t>(Cli.getCount("execs", 30000, 1));
  uint64_t Seed = static_cast<uint64_t>(Cli.getInt("seed", 1));
  uint32_t ResumeCache =
      static_cast<uint32_t>(Cli.getCount("resume-cache", 256));
  uint32_t RunCache = static_cast<uint32_t>(Cli.getCount("run-cache", 64));
  uint32_t ResumeMin = static_cast<uint32_t>(
      Cli.getCount("resume-min", PFuzzerOptions().ResumeMinLength));
  uint32_t ResumeStride = static_cast<uint32_t>(
      Cli.getCount("resume-stride", PFuzzerOptions().ResumeStride));
  uint32_t ResumeRungs = static_cast<uint32_t>(
      Cli.getCount("resume-rungs", PFuzzerOptions().ResumeRungs));
  size_t GrowthLen = static_cast<size_t>(Cli.getCount("growth-len", 240));
  size_t SweepCache = static_cast<size_t>(Cli.getCount("sweep-cache", 20));
  size_t SweepWave = static_cast<size_t>(Cli.getCount("sweep-wave", 12));
  BenchJsonWriter Json(Cli.getString("json", ""));
  if (!Cli.ok() || !Cli.unqueried().empty()) {
    for (const std::string &Err : Cli.errors())
      std::fprintf(stderr, "error: %s\n", Err.c_str());
    std::fprintf(stderr, "usage: micro_resume [--execs=N] [--seed=N]"
                         " [--resume-cache=N] [--resume-min=N]"
                         " [--resume-stride=N] [--resume-rungs=N]"
                         " [--run-cache=N] [--growth-len=N] [--sweep-cache=N]"
                         " [--sweep-wave=N] [--json=PATH]\n");
    return 1;
  }

  std::printf("== Prefix resumption: wall-clock against cold re-execution"
              " ==\n");
  std::printf("(%llu execs per run, seed %llu, resume-cache %u, resume-min %u,"
              " run-cache %u, fibers %s)\n\n",
              static_cast<unsigned long long>(Execs),
              static_cast<unsigned long long>(Seed), ResumeCache, ResumeMin,
              RunCache,
              PrefixResumeEngine::available() ? "available" : "UNAVAILABLE");

  bool AllIdentical = true;

  // --- 1. Growth sweep: grow a long JSON document prefix by prefix with
  // substitution candidates spliced below the frontier after every step,
  // under a bounded checkpoint cache — cold vs single-checkpoint (the
  // pre-ladder engine, stride 0) vs laddered. ---
  if (PrefixResumeEngine::available()) {
    const Subject &J = jsonSubject();
    const std::string Doc = growthDocument(GrowthLen);
    const std::vector<std::string> Steps = sweepInputs(Doc, SweepWave);
    std::vector<RunResult> Reference;
    Reference.reserve(Steps.size());
    sweepRun(J, Steps, nullptr, &Reference, /*Check=*/false);
    PrefixResumeEngine Single(
        [&J](ExecutionContext &C) { return J.run(C); }, SweepCache,
        /*MinInput=*/0, /*RungStride=*/0, /*RungCap=*/0);
    PrefixResumeEngine Ladder([&J](ExecutionContext &C) { return J.run(C); },
                              SweepCache, /*MinInput=*/0, ResumeStride,
                              ResumeRungs);
    // Untimed identity passes: every step's resumed RunResult must match
    // the cold reference event for event, in both engine modes.
    bool SingleIdentical = sweepRun(J, Steps, &Single, &Reference, true);
    bool LadderIdentical = sweepRun(J, Steps, &Ladder, &Reference, true);
    AllIdentical &= SingleIdentical && LadderIdentical;
    const int Rounds = 20;
    auto T0 = std::chrono::steady_clock::now();
    for (int R = 0; R != Rounds; ++R)
      sweepRun(J, Steps, nullptr, nullptr, false);
    auto T1 = std::chrono::steady_clock::now();
    for (int R = 0; R != Rounds; ++R)
      sweepRun(J, Steps, &Single, nullptr, false);
    auto T2 = std::chrono::steady_clock::now();
    for (int R = 0; R != Rounds; ++R)
      sweepRun(J, Steps, &Ladder, nullptr, false);
    auto T3 = std::chrono::steady_clock::now();
    double ColdSecs = std::chrono::duration<double>(T1 - T0).count();
    double SingleSecs = std::chrono::duration<double>(T2 - T1).count();
    double LadderSecs = std::chrono::duration<double>(T3 - T2).count();
    double NumSteps = static_cast<double>(Rounds) * Steps.size();
    std::printf("growth sweep (json, %zu-byte document, %zu steps/sweep,"
                " %d sweeps, wave %zu,\n sweep-cache %zu, stride %u,"
                " rungs %u):\n",
                Doc.size(), Steps.size(), Rounds, SweepWave, SweepCache,
                ResumeStride, ResumeRungs);
    std::printf("  cold    %8.3fs  %9.0f execs/s\n", ColdSecs,
                ColdSecs > 0 ? NumSteps / ColdSecs : 0);
    std::printf("  single  %8.3fs  %9.0f execs/s  %.2fx vs cold  %s\n",
                SingleSecs, SingleSecs > 0 ? NumSteps / SingleSecs : 0,
                SingleSecs > 0 ? ColdSecs / SingleSecs : 0,
                SingleIdentical ? "identical" : "MISMATCH");
    std::printf("  ladder  %8.3fs  %9.0f execs/s  %.2fx vs cold"
                "  %.2fx vs single  %s\n",
                LadderSecs, LadderSecs > 0 ? NumSteps / LadderSecs : 0,
                LadderSecs > 0 ? ColdSecs / LadderSecs : 0,
                LadderSecs > 0 ? SingleSecs / LadderSecs : 0,
                LadderIdentical ? "identical" : "MISMATCH");
    std::printf("  ladder hit rate %.1f%% (avg rung depth %.2f,"
                " %llu bytes skipped), single hit rate %.1f%%"
                " (%llu bytes skipped)\n",
                100 * Ladder.stats().hitRate(),
                Ladder.stats().avgHitRungDepth(),
                static_cast<unsigned long long>(Ladder.stats().BytesSkipped),
                100 * Single.stats().hitRate(),
                static_cast<unsigned long long>(Single.stats().BytesSkipped));
    AllIdentical &= rungSweep(Doc, /*CacheSize=*/8, ResumeStride, Json);
    Json.add({.Bench = "micro_resume",
              .Subject = "json/sweep-cold",
              .ExecsPerSec = ColdSecs > 0 ? NumSteps / ColdSecs : 0,
              .WallMs = ColdSecs * 1000.0});
    Json.add({.Bench = "micro_resume",
              .Subject = "json/sweep-single",
              .ExecsPerSec = SingleSecs > 0 ? NumSteps / SingleSecs : 0,
              .WallMs = SingleSecs * 1000.0,
              .ResumeHitRate = Single.stats().hitRate()});
    Json.add({.Bench = "micro_resume",
              .Subject = "json/sweep-ladder",
              .ExecsPerSec = LadderSecs > 0 ? NumSteps / LadderSecs : 0,
              .WallMs = LadderSecs * 1000.0,
              .ResumeHitRate = Ladder.stats().hitRate(),
              .ResumeRungDepth = Ladder.stats().avgHitRungDepth()});
  } else {
    std::printf("growth and rung sweeps: skipped (fibers unavailable)\n");
  }

  // --- 3. Whole campaigns on every evaluation subject. ---
  std::printf("\n%-8s %9s %9s %11s %8s %6s %12s  %s\n", "subject", "mode",
              "wall[s]", "execs/s", "speedup", "hit%", "bytes-skip", "report");
  for (const Subject *S : evaluationSubjects()) {
    RunOutcome Cold = runOnce(*S, Execs, Seed, /*ResumeCache=*/0, RunCache,
                              ResumeMin, ResumeStride, ResumeRungs);
    RunOutcome Warm = runOnce(*S, Execs, Seed, ResumeCache, RunCache,
                              ResumeMin, ResumeStride, ResumeRungs);
    bool Identical = sameReport(Cold.Report, Warm.Report);
    AllIdentical &= Identical;
    double Speedup = Warm.WallSeconds > 0
                         ? Cold.WallSeconds / Warm.WallSeconds
                         : 0;
    std::printf("%-8s %9s %9.3f %11.0f %7s %6s %12s  %s\n", S->name().data(),
                "cold", Cold.WallSeconds,
                Cold.WallSeconds > 0 ? Execs / Cold.WallSeconds : 0, "-", "-",
                "-", "baseline");
    std::printf("%-8s %9s %9.3f %11.0f %7.2fx %5.1f%% %12llu  %s\n",
                S->name().data(), "resume", Warm.WallSeconds,
                Warm.WallSeconds > 0 ? Execs / Warm.WallSeconds : 0, Speedup,
                100 * Warm.Stats.hitRate(),
                static_cast<unsigned long long>(Warm.Stats.BytesSkipped),
                Identical ? "identical" : "MISMATCH");
    Json.add({.Bench = "micro_resume",
              .Subject = std::string(S->name()) + "/cold",
              .ExecsPerSec = Cold.WallSeconds > 0 ? Execs / Cold.WallSeconds
                                                  : 0,
              .WallMs = Cold.WallSeconds * 1000.0});
    Json.add({.Bench = "micro_resume",
              .Subject = std::string(S->name()) + "/resume",
              .ExecsPerSec = Warm.WallSeconds > 0 ? Execs / Warm.WallSeconds
                                                  : 0,
              .WallMs = Warm.WallSeconds * 1000.0,
              .ResumeHitRate = Warm.Stats.hitRate(),
              .ResumeRungDepth = Warm.Stats.avgHitRungDepth()});
  }
  if (!AllIdentical) {
    std::fprintf(stderr, "error: a resuming run diverged from the cold"
                         " baseline (or the rung sweep was not monotone)\n");
    return 1;
  }
  return Json.write() ? 0 : 1;
}
