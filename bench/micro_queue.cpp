//===- bench/micro_queue.cpp - Queue + coverage bookkeeping benchmarks ----===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Micro-benchmarks of the fuzzing loop's hot bookkeeping: branch-coverage
/// membership tests on the dense BranchCoverageMap (the per-execution
/// runCheck pattern), distinct-branch extraction from a run's trace, and
/// the candidate store's rescore pass on a json-sized queue.
///
//===----------------------------------------------------------------------===//

#include "core/BranchCoverageMap.h"
#include "core/CandidateStore.h"
#include "runtime/ExecutionContext.h"

#include <benchmark/benchmark.h>

#include <cstdint>
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

/// One branch trace per execution of a run sequence.
std::vector<std::vector<uint32_t>> runTraces(size_t NumRuns, size_t TraceLen,
                                             uint32_t SiteRange) {
  std::vector<std::vector<uint32_t>> Traces;
  Traces.reserve(NumRuns);
  for (size_t I = 0; I != NumRuns; ++I)
    Traces.push_back(traceKeys(TraceLen, SiteRange, I + 17));
  return Traces;
}

} // namespace

// The runCheck pattern: for every execution, walk the covered branches of
// the run, count the unseen ones, then fold them into global coverage.
static void BM_RunCheckBookkeepingBitmap(benchmark::State &State) {
  std::vector<std::vector<uint32_t>> Traces = runTraces(64, 400, 500);
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
  CandidateStore Store(/*MaxQueue=*/200000, HeuristicOptions());
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

// Distinct-branch extraction (RunResult::coveredBranchesUpTo), the
// per-execution dedup runCheck and computeStats perform twice per run:
// one epoch-stamped seen-array pass over the trace, sorting only the
// distinct entries.
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
