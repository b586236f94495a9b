//===- bench/micro_queue.cpp - Queue + coverage bookkeeping benchmarks ----===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Micro-benchmarks of the fuzzing loop's hot bookkeeping: branch-coverage
/// membership tests (the per-execution runCheck pattern), comparing the
/// old std::set representation against the dense BranchCoverageMap bitmap,
/// the candidate store's rescore pass on a json-sized queue, plus
/// candidate max-heap push/pop. The *Set* and *Bitmap* pair runs the same
/// workload, so its ratio is the speedup of the dense representation.
///
/// `--sweep` switches to the queue representation sweep instead: each
/// cell runs sequentially on the compact candidate store and on the
/// string-backed reference queue, recording peak queue bytes and
/// amortized rescore time per execution for both. Everything goes to
/// --json; the two representations are checked byte-identical against
/// each other, so the sweep doubles as an end-to-end identity gate (exit
/// 1 on any divergence).
///
//===----------------------------------------------------------------------===//

#include "BenchJson.h"
#include "core/BranchCoverageMap.h"
#include "core/CandidateStore.h"
#include "eval/Campaign.h"
#include "runtime/ExecutionContext.h"
#include "support/CommandLine.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <vector>

using namespace pfuzz;

namespace {

/// Deterministic branch-key stream shaped like real traces: keys cluster
/// in a bounded site range and repeat heavily (parsers re-execute the
/// same dispatch branches on every input).
std::vector<uint32_t> traceKeys(size_t Count, uint32_t SiteRange,
                                uint64_t Seed) {
  std::vector<uint32_t> Keys;
  Keys.reserve(Count);
  uint64_t State = Seed * 6364136223846793005ull + 1442695040888963407ull;
  for (size_t I = 0; I != Count; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    uint32_t Site = static_cast<uint32_t>((State >> 33) % SiteRange);
    Keys.push_back(Site << 1 | static_cast<uint32_t>(State & 1));
  }
  return Keys;
}

/// Per-candidate branch lists as rescoreQueue sees them: each list is the
/// novel suffix of one execution's trace.
std::vector<std::vector<uint32_t>> candidateLists(size_t NumCandidates,
                                                  size_t ListLen,
                                                  uint32_t SiteRange) {
  std::vector<std::vector<uint32_t>> Lists;
  Lists.reserve(NumCandidates);
  for (size_t I = 0; I != NumCandidates; ++I)
    Lists.push_back(traceKeys(ListLen, SiteRange, I + 17));
  return Lists;
}

} // namespace

// The runCheck pattern: for every execution, walk the covered branches of
// the run, count the unseen ones, then fold them into global coverage.
static void BM_RunCheckBookkeepingSet(benchmark::State &State) {
  std::vector<std::vector<uint32_t>> Traces = candidateLists(64, 400, 500);
  for (auto _ : State) {
    std::set<uint32_t> Valid;
    size_t Fresh = 0;
    for (const std::vector<uint32_t> &Trace : Traces) {
      for (uint32_t B : Trace)
        if (!Valid.count(B))
          ++Fresh;
      Valid.insert(Trace.begin(), Trace.end());
    }
    benchmark::DoNotOptimize(Fresh);
    benchmark::DoNotOptimize(Valid.size());
  }
}
BENCHMARK(BM_RunCheckBookkeepingSet);

static void BM_RunCheckBookkeepingBitmap(benchmark::State &State) {
  std::vector<std::vector<uint32_t>> Traces = candidateLists(64, 400, 500);
  for (auto _ : State) {
    BranchCoverageMap Valid;
    size_t Fresh = 0;
    for (const std::vector<uint32_t> &Trace : Traces) {
      for (uint32_t B : Trace)
        if (!Valid.test(B))
          ++Fresh;
      Valid.insert(Trace.begin(), Trace.end());
    }
    benchmark::DoNotOptimize(Fresh);
    benchmark::DoNotOptimize(Valid.size());
  }
}
BENCHMARK(BM_RunCheckBookkeepingBitmap);

// The candidate store's rescore pass (Algorithm 1 lines 40-43) on a
// queue shaped like json at 400k executions: ~100k queued candidates in
// ~25k run groups, a path table as large as the group count, and a
// frontier that has not grown since the last pass — the common case, so
// the pass is the group walk, the entry stream and make_heap.
static void BM_StoreRescore(benchmark::State &State) {
  constexpr uint32_t NumGroups = 25000, PerGroup = 4;
  CandidateStore Store(/*Reference=*/false, /*MaxQueue=*/200000,
                       HeuristicOptions());
  BranchCoverageMap VBr;
  std::vector<uint32_t> Covered = traceKeys(800, 1000, 99);
  VBr.insert(Covered.begin(), Covered.end());
  PathCountMap PathCounts;
  std::string Parent(40, 'a');
  uint32_t Root = Store.internRoot(Parent, 0x1);
  std::vector<uint32_t> Keys = traceKeys(NumGroups * 2, 1 << 20, 7);
  uint64_t Hash = 2;
  for (uint32_t G = 0; G != NumGroups; ++G) {
    std::vector<uint32_t> Branches = traceKeys(4, 1000, G + 17);
    uint64_t PathHash = Keys[2 * G];
    PathCounts[PathHash] = Keys[2 * G + 1] % 40;
    uint32_t Run = Store.makeRun(Branches, VBr.epoch(), (G % 9) / 2.0,
                                 PathHash, G % 7);
    for (uint32_t C = 0; C != PerGroup; ++C) {
      size_t SpliceAt = 30 + (Keys[2 * G] + C) % 10;
      std::string_view Rep = std::string_view("true").substr(0, C + 1);
      Store.push(Run, Root, Parent, SpliceAt, Rep, Hash++,
                 static_cast<uint32_t>(Rep.size()), 1,
                 -static_cast<double>(Keys[2 * G + 1] % 64));
    }
    Store.releaseRun(Run);
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(Store.rescore(VBr, PathCounts));
  State.counters["entries"] = static_cast<double>(Store.queueSize());
}
BENCHMARK(BM_StoreRescore)->Unit(benchmark::kMillisecond);

// Candidate queue push/pop: the max-heap discipline PFuzzer::run uses
// (push_heap on add, pop_heap on pick).
static void BM_QueuePushPop(benchmark::State &State) {
  struct Candidate {
    double Score;
    uint64_t Id;
    bool operator<(const Candidate &O) const { return Score < O.Score; }
  };
  std::vector<uint32_t> Scores = traceKeys(4096, 1 << 20, 42);
  for (auto _ : State) {
    std::vector<Candidate> Queue;
    Queue.reserve(Scores.size());
    // Grow the heap, interleaving pops the way the fuzzing loop does.
    for (size_t I = 0; I != Scores.size(); ++I) {
      Queue.push_back({static_cast<double>(Scores[I]), I});
      std::push_heap(Queue.begin(), Queue.end());
      if (I % 4 == 3) {
        std::pop_heap(Queue.begin(), Queue.end());
        Queue.pop_back();
      }
    }
    benchmark::DoNotOptimize(Queue.size());
  }
}
BENCHMARK(BM_QueuePushPop);

// Distinct-branch extraction (RunResult::coveredBranchesUpTo), the
// per-execution dedup runCheck and computeStats perform twice per run.
// Before: copy the trace, sort the whole copy, unique. After: one
// epoch-stamped seen-array pass over the trace, sorting only the distinct
// entries. Same workload, same (sorted) output — the ratio is the speedup.
static void BM_CoveredBranchesSortUnique(benchmark::State &State) {
  std::vector<uint32_t> Trace = traceKeys(4000, 400, 7);
  std::vector<uint32_t> Out;
  for (auto _ : State) {
    Out.assign(Trace.begin(), Trace.end());
    std::sort(Out.begin(), Out.end());
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
    benchmark::DoNotOptimize(Out.size());
  }
}
BENCHMARK(BM_CoveredBranchesSortUnique);

static void BM_CoveredBranchesEpochStamp(benchmark::State &State) {
  RunResult RR;
  RR.BranchTrace = traceKeys(4000, 400, 7);
  std::vector<uint32_t> Out;
  for (auto _ : State) {
    RR.coveredBranches(Out);
    benchmark::DoNotOptimize(Out.size());
  }
}
BENCHMARK(BM_CoveredBranchesEpochStamp);

// Epoch short-circuit: a rescore pass over candidates whose FilterEpoch
// already matches does no membership tests at all.
static void BM_RescoreEpochSkip(benchmark::State &State) {
  std::vector<std::vector<uint32_t>> Lists = candidateLists(256, 60, 1000);
  BranchCoverageMap Valid;
  uint64_t Epoch = Valid.epoch();
  std::vector<uint64_t> FilterEpochs(Lists.size(), Epoch);
  for (auto _ : State) {
    size_t Rescored = 0;
    for (size_t I = 0; I != Lists.size(); ++I)
      if (FilterEpochs[I] != Valid.epoch())
        ++Rescored;
    benchmark::DoNotOptimize(Rescored);
  }
}
BENCHMARK(BM_RescoreEpochSkip);

//===----------------------------------------------------------------------===//
// Queue representation sweep (--sweep)
//===----------------------------------------------------------------------===//

namespace {

/// Deterministic-result equality: everything in a CampaignResult except
/// timing must match bit for bit.
bool identicalResults(const CampaignResult &A, const CampaignResult &B) {
  return A.Report.Executions == B.Report.Executions &&
         A.TotalExecutions == B.TotalExecutions &&
         A.Report.ValidInputs == B.Report.ValidInputs &&
         A.Report.ValidBranches == B.Report.ValidBranches &&
         A.Report.CoverageTimeline == B.Report.CoverageTimeline &&
         A.TokensFound == B.TokensFound;
}

int runSweep(int Argc, char **Argv) {
  CommandLine Cli(Argc, Argv);
  Cli.getBool("sweep", false); // the mode switch that got us here
  uint64_t Execs =
      static_cast<uint64_t>(Cli.getCount("sweep-execs", 2500, /*Min=*/1));
  int Runs = static_cast<int>(Cli.getCount("sweep-runs", 3, /*Min=*/1));
  BenchJsonWriter Json(Cli.getString("json", ""));
  if (!Cli.ok() || !Cli.unqueried().empty()) {
    for (const std::string &Err : Cli.errors())
      std::fprintf(stderr, "error: %s\n", Err.c_str());
    std::fprintf(stderr, "usage: micro_queue --sweep [--sweep-execs=N]"
                         " [--sweep-runs=N] [--json=PATH]\n");
    return 1;
  }
  constexpr uint64_t Seed = 1;
  bool AllIdentical = true;

  // Queue representation sweep: sequential campaigns run twice, once on
  // the compact candidate store and once on the by-value string queue,
  // compared byte for byte against each other. The dyck/json cells run
  // the base budget (short-input regime, where the string queue rides
  // the small-string optimization); json-deep runs a 32x budget at
  // the default queue cap, filling the queue with ~100k candidates whose
  // inputs have outgrown SSO — the O(candidates x input-length) regime
  // the compact store targets, and where the headline memory ratio is
  // measured.
  struct RepCell {
    const char *Label;
    const Subject *S;
    uint64_t Execs;
    size_t MaxQueue; // 0 = default cap
  };
  const RepCell RepCells[] = {
      {"dyck", &dyckSubject(), Execs, 0},
      {"json", &jsonSubject(), Execs, 0},
      {"json-deep", &jsonSubject(), Execs * 32, 0},
  };
  std::printf("== Queue representation: compact store vs string queue ==\n");
  std::printf("%-9s %-10s %9s %11s %12s %11s  %s\n", "mode", "cell",
              "wall[s]", "execs/s", "peak[B]", "resc[ns/e]", "reports");
  for (const RepCell &Cell : RepCells) {
    const char *ModeName[2] = {"compact", "stringq"};
    double PeakBytes[2] = {0, 0};
    double Rate[2] = {0, 0};
    CampaignResult Results[2];
    for (int Mode = 0; Mode != 2; ++Mode) {
      ToolOptions Tools;
      Tools.PFuzzerReferenceQueue = Mode == 1;
      Tools.PFuzzerMaxQueue = Cell.MaxQueue;
      auto T0 = std::chrono::steady_clock::now();
      Results[Mode] = runCampaign(ToolKind::PFuzzer, *Cell.S, Cell.Execs,
                                  Seed, Runs, /*Jobs=*/1, Tools);
      double Wall = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - T0)
                        .count();
      const CampaignResult &R = Results[Mode];
      bool Same = Mode == 0 || identicalResults(Results[0], Results[1]);
      AllIdentical &= Same;
      Rate[Mode] =
          Wall > 0 ? static_cast<double>(R.TotalExecutions) / Wall : 0;
      PeakBytes[Mode] = static_cast<double>(R.Telemetry.Queue.PeakBytes);
      double RescoreNs = static_cast<double>(R.Telemetry.Queue.RescoreNanos) /
                         static_cast<double>(std::max<uint64_t>(
                             R.TotalExecutions, 1));
      std::printf("%-9s %-10s %9.3f %11.0f %12.0f %11.1f  %s\n",
                  ModeName[Mode], Cell.Label, Wall, Rate[Mode],
                  PeakBytes[Mode], RescoreNs,
                  Mode == 0 ? "-" : Same ? "identical" : "MISMATCH");
      Json.add({.Bench = "micro_queue",
                .Subject = std::string("sweep-") + ModeName[Mode] + "/" +
                           Cell.Label,
                .ExecsPerSec = Rate[Mode],
                .WallMs = Wall * 1000.0,
                .QueueBytesPeak = PeakBytes[Mode],
                .RescoreNsPerExec = RescoreNs});
    }
    if (PeakBytes[0] > 0 && Rate[1] > 0)
      std::printf("%-9s %-10s queue bytes %.2fx smaller, throughput %.2fx\n",
                  "ratio", Cell.Label, PeakBytes[1] / PeakBytes[0],
                  Rate[0] / Rate[1]);
  }

  if (!AllIdentical) {
    std::fprintf(stderr, "error: the compact store diverged from the"
                         " string queue\n");
    return 1;
  }
  return Json.write() ? 0 : 1;
}

} // namespace

/// Custom main instead of benchmark_main: `--sweep` runs the queue
/// representation sweep; anything else goes to google-benchmark
/// untouched.
int main(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::string_view(Argv[I]).rfind("--sweep", 0) == 0)
      return runSweep(Argc, Argv);
  benchmark::Initialize(&Argc, Argv);
  if (benchmark::ReportUnrecognizedArguments(Argc, Argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
