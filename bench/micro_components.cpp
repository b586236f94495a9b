//===- bench/micro_components.cpp - Component micro-benchmarks ------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Micro-benchmarks of the fuzzing building blocks: tainted strings,
/// tokenizers, the heuristic, and short end-to-end fuzzing bursts of each
/// tool. These bound the per-execution cost of the machinery around the
/// subjects.
///
//===----------------------------------------------------------------------===//

#include "baselines/AflFuzzer.h"
#include "baselines/KleeFuzzer.h"
#include "core/Heuristic.h"
#include "core/PFuzzer.h"
#include "tokens/Tokenizers.h"

#include <benchmark/benchmark.h>

using namespace pfuzz;

static void BM_TStringAccumulate(benchmark::State &State) {
  for (auto _ : State) {
    TString S;
    for (uint32_t I = 0; I != 32; ++I)
      S.push_back(TChar('a' + (I % 26), TaintBounds::forIndex(I)));
    benchmark::DoNotOptimize(S.size());
  }
}
BENCHMARK(BM_TStringAccumulate);

static void BM_HeuristicScore(benchmark::State &State) {
  HeuristicInputs In;
  In.NewBranches = 12;
  In.InputLen = 20;
  In.ReplacementLen = 5;
  In.AvgStackSize = 4;
  In.NumParents = 7;
  In.PathCount = 3;
  HeuristicOptions Opt;
  for (auto _ : State)
    benchmark::DoNotOptimize(heuristicScore(In, Opt));
}
BENCHMARK(BM_HeuristicScore);

static void BM_TokenizeMjs(benchmark::State &State) {
  const char *Program =
      "function f(a){for(var i=0;i<a.length;i++){if(a[i]>=0){continue;}"
      "else{return JSON.stringify(a);}}return undefined;}";
  for (auto _ : State)
    benchmark::DoNotOptimize(extractTokens("mjs", Program).size());
}
BENCHMARK(BM_TokenizeMjs);

static void BM_TokenizeJson(benchmark::State &State) {
  const char *Doc = "{\"a\":[1,2,3,true,false,null],\"b\":\"str\"}";
  for (auto _ : State)
    benchmark::DoNotOptimize(extractTokens("json", Doc).size());
}
BENCHMARK(BM_TokenizeJson);

namespace {

/// Measures a whole mini-campaign of a tool; the counter reports
/// executions per second of wall-clock, the throughput unit the paper's
/// budget comparisons hinge on.
template <typename ToolT>
void runBurst(benchmark::State &State, const Subject &S, uint64_t Execs) {
  uint64_t Seed = 1;
  for (auto _ : State) {
    ToolT Tool;
    FuzzerOptions Opts;
    Opts.Seed = Seed++;
    Opts.MaxExecutions = Execs;
    FuzzReport R = Tool.run(S, Opts);
    benchmark::DoNotOptimize(R.ValidInputs.size());
  }
  State.counters["execs_per_iter"] = static_cast<double>(Execs);
}

} // namespace

static void BM_PFuzzerBurstJson(benchmark::State &State) {
  runBurst<PFuzzer>(State, jsonSubject(), 500);
}
BENCHMARK(BM_PFuzzerBurstJson);

static void BM_AflBurstJson(benchmark::State &State) {
  runBurst<AflFuzzer>(State, jsonSubject(), 500);
}
BENCHMARK(BM_AflBurstJson);

static void BM_KleeBurstJson(benchmark::State &State) {
  runBurst<KleeFuzzer>(State, jsonSubject(), 500);
}
BENCHMARK(BM_KleeBurstJson);

static void BM_PFuzzerBurstMjs(benchmark::State &State) {
  runBurst<PFuzzer>(State, mjsSubject(), 500);
}
BENCHMARK(BM_PFuzzerBurstMjs);
