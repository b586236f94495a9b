//===- bench/micro_overhead.cpp - Instrumentation overhead (Section 4) ----===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the instrumentation overhead the paper quantifies in
/// Section 4 ("executions are slowed down by a factor of about 100"):
/// each subject parses a fixed valid corpus in Off (uninstrumented twin),
/// CoverageOnly (AFL-grade), Comparisons (what pFuzzer and KLEE record)
/// and Full (plus the call trace and compared bytes that grammar mining
/// and AFL-CTP read) modes. Compare the per-mode timings to read off the
/// slowdown factor.
///
//===----------------------------------------------------------------------===//

#include "subjects/Subject.h"

#include <benchmark/benchmark.h>

using namespace pfuzz;

namespace {

const char *corpusFor(std::string_view Name) {
  if (Name == "ini")
    return "[section]\nkey=value\nother=1\n; comment\n[next]\na=b\n";
  if (Name == "csv")
    return "a,b,c\n\"quoted, field\",2,3\nx,\"y\"\"z\",w\n";
  if (Name == "json")
    return "{\"a\":[1,2.5,-3,true,false,null],\"b\":{\"s\":\"str\"}}";
  if (Name == "tinyc")
    return "{i=0;while(i<9){i=i+1;if(i<5)a=a+i;else b=b+i;}}";
  return "var a=[1,2,3];for(var i=0;i<3;i=i+1){a.push(i*2);}"
         "if(a.length>4){a=a.slice(1);}";
}

void runSubject(benchmark::State &State, const Subject &S,
                InstrumentationMode Mode) {
  const char *Corpus = corpusFor(S.name());
  // Sanity: benchmark inputs must be valid.
  if (!S.accepts(Corpus)) {
    State.SkipWithError("corpus rejected");
    return;
  }
  for (auto _ : State) {
    RunResult RR = S.execute(Corpus, Mode);
    benchmark::DoNotOptimize(RR.ExitCode);
  }
}

} // namespace

#define PFUZZ_OVERHEAD_BENCH(SUBJECT)                                         \
  static void BM_##SUBJECT##_Off(benchmark::State &State) {                   \
    runSubject(State, SUBJECT##Subject(), InstrumentationMode::Off);          \
  }                                                                           \
  BENCHMARK(BM_##SUBJECT##_Off);                                              \
  static void BM_##SUBJECT##_CoverageOnly(benchmark::State &State) {          \
    runSubject(State, SUBJECT##Subject(),                                     \
               InstrumentationMode::CoverageOnly);                            \
  }                                                                           \
  BENCHMARK(BM_##SUBJECT##_CoverageOnly);                                     \
  static void BM_##SUBJECT##_Comparisons(benchmark::State &State) {           \
    runSubject(State, SUBJECT##Subject(), InstrumentationMode::Comparisons);  \
  }                                                                           \
  BENCHMARK(BM_##SUBJECT##_Comparisons);                                      \
  static void BM_##SUBJECT##_Full(benchmark::State &State) {                  \
    runSubject(State, SUBJECT##Subject(), InstrumentationMode::Full);         \
  }                                                                           \
  BENCHMARK(BM_##SUBJECT##_Full);

PFUZZ_OVERHEAD_BENCH(ini)
PFUZZ_OVERHEAD_BENCH(csv)
PFUZZ_OVERHEAD_BENCH(json)
PFUZZ_OVERHEAD_BENCH(tinyc)
PFUZZ_OVERHEAD_BENCH(mjs)
