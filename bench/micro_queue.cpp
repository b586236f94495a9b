//===- bench/micro_queue.cpp - Queue + coverage bookkeeping benchmarks ----===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Micro-benchmarks of the fuzzing loop's hot bookkeeping: branch-coverage
/// membership tests on the dense BranchCoverageMap (the per-execution
/// runCheck pattern), distinct-branch extraction from a run's trace, the
/// candidate store's full and incremental rescore passes on a json-sized
/// queue, and pops from groups that share a few hot parse paths.
///
//===----------------------------------------------------------------------===//

#include "core/BranchCoverageMap.h"
#include "core/CandidateStore.h"
#include "runtime/ExecutionContext.h"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <optional>
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

namespace {

/// A candidate store shaped like json at 400k executions: ~100k queued
/// candidates in ~25k run groups, each with a few new branches, and a
/// path table as large as the group count with counts on both sides of
/// the penalty cap.
struct JsonQueue {
  static constexpr uint32_t NumGroups = 25000, PerGroup = 4;
  CandidateStore Store{/*MaxQueue=*/200000, HeuristicOptions()};
  BranchCoverageMap VBr;
  PathCountMap PathCounts;
  std::string Parent = std::string(40, 'a');
  uint64_t Hash = 2;

  JsonQueue() {
    std::vector<uint32_t> Covered = traceKeys(800, 1000, 99);
    VBr.insert(Covered.begin(), Covered.end());
    std::vector<uint32_t> Keys = traceKeys(NumGroups * 2, 1 << 20, 7);
    for (uint32_t G = 0; G != NumGroups; ++G) {
      PathCounts[Keys[2 * G]] = Keys[2 * G + 1] % 40;
      pushGroup(Keys[2 * G], G, -static_cast<double>(Keys[2 * G + 1] % 64));
    }
    Store.rescore(VBr, PathCounts);
  }

  /// Opens run number \p G on \p PathHash, pushes PerGroup candidates
  /// with push score \p Score, and closes the run.
  void pushGroup(uint64_t PathHash, uint32_t G, double Score) {
    std::vector<uint32_t> Branches = traceKeys(4, 1000, G + 17);
    uint32_t Run = Store.makeRun(Branches, VBr.epoch(), (G % 9) / 2.0,
                                 PathHash, G % 7);
    for (uint32_t C = 0; C != PerGroup; ++C) {
      size_t SpliceAt = 30 + (PathHash + C) % 10;
      std::string_view Rep = std::string_view("true").substr(0, C + 1);
      Store.push(Run, std::string_view(Parent).substr(0, SpliceAt), Rep,
                 Hash++, static_cast<uint32_t>(Rep.size()), 1, Score);
    }
    Store.releaseRun(Run);
  }
};

} // namespace

// The candidate store's full rescore pass (Algorithm 1 lines 40-43) on
// the json-shaped queue: each iteration covers one new outcome first, so
// every pass re-filters and re-terms all ~25k groups and rebuilds the
// group heap.
static void BM_StoreRescore(benchmark::State &State) {
  JsonQueue Q;
  uint32_t NextOutcome = 2000; // above every group's branch keys
  for (auto _ : State) {
    Q.VBr.insert(&NextOutcome, &NextOutcome + 1);
    ++NextOutcome;
    benchmark::DoNotOptimize(Q.Store.rescore(Q.VBr, Q.PathCounts));
  }
  State.counters["entries"] = static_cast<double>(Q.Store.queueSize());
  State.counters["full"] = static_cast<double>(Q.Store.Stats.FullRescores);
}
BENCHMARK(BM_StoreRescore)->Unit(benchmark::kMillisecond);

// The incremental pass on the same queue, with the shape measured between
// two json-deep passes: ~1,200 fresh pushes (300 new runs) and ~50
// below-cap path-count moves on settled runs, vBr unchanged. Nothing is
// popped, so a fixed 64 iterations grow the queue from ~100k to ~177k
// candidates, below the cap: no pass trims.
static void BM_StoreRescoreIncremental(benchmark::State &State) {
  JsonQueue Q;
  constexpr uint32_t NewRuns = 300, PathBumps = 50;
  std::vector<uint32_t> Keys = traceKeys(1 << 16, 1 << 30, 11);
  uint32_t G = JsonQueue::NumGroups;
  for (auto _ : State) {
    State.PauseTiming();
    // The bumps hit the paths of the runs the previous pass settled,
    // each one execution below the cap; then new runs on such paths.
    for (uint32_t I = 0; I != PathBumps; ++I) {
      uint32_t Settled = G - NewRuns + Keys[(G + I) % Keys.size()] % NewRuns;
      uint64_t Path = uint64_t(1) << 40 | Settled;
      if (pathPenaltyMoves(Q.PathCounts[Path]++, HeuristicOptions()))
        Q.Store.pathCountMoved(Path);
    }
    for (uint32_t I = 0; I != NewRuns; ++I, ++G) {
      Q.PathCounts[uint64_t(1) << 40 | G] = PathPenaltyCap - 1;
      Q.pushGroup(uint64_t(1) << 40 | G, G, -static_cast<double>(G % 64));
    }
    State.ResumeTiming();
    benchmark::DoNotOptimize(Q.Store.rescore(Q.VBr, Q.PathCounts));
  }
  State.counters["entries"] = static_cast<double>(Q.Store.queueSize());
  State.counters["full"] = static_cast<double>(Q.Store.Stats.FullRescores);
  State.counters["dirty_groups_per_pass"] =
      static_cast<double>(Q.Store.Stats.DirtyGroups) /
      static_cast<double>(Q.Store.Stats.Rescores);
}
BENCHMARK(BM_StoreRescoreIncremental)
    ->Unit(benchmark::kMicrosecond)
    ->Iterations(64);

// Pops on hot parse paths: run groups of one queued candidate each, all
// on 4 paths (json-deep gathers thousands of groups on its hottest
// paths), settled by one pass and popped to empty. Every pop empties its
// group, which leaves the path index from wherever it sits in its
// bucket's chain, so the per-pop cost must not grow with the groups per
// path: compare sec_per_pop at the two sizes.
static void BM_StorePopHotPath(benchmark::State &State) {
  const uint32_t NumGroups = static_cast<uint32_t>(State.range(0));
  const std::vector<uint32_t> NoBranches;
  const std::string Parent(40, 'a');
  BranchCoverageMap VBr;
  PathCountMap PathCounts;
  std::optional<CandidateStore> Store;
  std::string Out;
  for (auto _ : State) {
    State.PauseTiming();
    Store.emplace(/*MaxQueue=*/2 * NumGroups, HeuristicOptions());
    for (uint32_t G = 0; G != NumGroups; ++G) {
      uint32_t Run = Store->makeRun(NoBranches, VBr.epoch(), (G % 9) / 2.0,
                                    /*PathHash=*/G % 4 + 1, G % 7);
      Store->push(Run, std::string_view(Parent).substr(0, 30 + G % 10), "x",
                  G + 2, 1, 1, -static_cast<double>(G % 64));
      Store->releaseRun(Run);
    }
    Store->rescore(VBr, PathCounts);
    State.ResumeTiming();
    while (!Store->empty())
      Store->pop(Out);
  }
  State.counters["sec_per_pop"] = benchmark::Counter(
      NumGroups, benchmark::Counter::kIsIterationInvariantRate |
                     benchmark::Counter::kInvert);
}
BENCHMARK(BM_StorePopHotPath)
    ->Arg(5000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

// Distinct-branch extraction (RunResult::coveredBranchesUpTo), runCheck's
// dedup of a valid run: one epoch-stamped seen-array pass over the trace
// (the walk computeStats makes too), sorting only the distinct entries.
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
