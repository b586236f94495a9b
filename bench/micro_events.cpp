//===- bench/micro_events.cpp - Event-recording allocation counts ---------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counts heap allocations per instrumented execution by overriding the
/// global allocator in this binary. Each subject parses a fixed valid
/// corpus through one recycled RunResult (the campaign pattern); after a
/// short warm-up that grows every pooled buffer to its working-set size,
/// the steady state is measured.
///
/// Read the numbers against Off: allocs_per_exec in Off mode is what the
/// subject itself allocates; the Comparisons- and Full-mode figures minus
/// the Off-mode figure are the allocation cost of event recording — the
/// quantity the arena-backed events, inline taint representation and
/// interned function names drive to zero.
///
//===----------------------------------------------------------------------===//

#include "subjects/Subject.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> AllocCount{0};

} // namespace

// Counting allocator for this binary. Counting is the point; the actual
// allocation defers to malloc/free — which also makes GCC's
// -Wmismatched-new-delete a false positive here (our delete is free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void *operator new(std::size_t Size) {
  AllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new[](std::size_t Size) { return ::operator new(Size); }

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

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

void runAllocBench(benchmark::State &State, const Subject &S,
                   InstrumentationMode Mode) {
  const char *Corpus = corpusFor(S.name());
  if (!S.accepts(Corpus)) {
    State.SkipWithError("corpus rejected");
    return;
  }
  RunResult RR;
  // Warm-up: grow every recycled buffer (trace vectors, event arena,
  // intern remap scratch) to working-set size.
  for (int I = 0; I != 16; ++I)
    S.execute(Corpus, Mode, RR);
  uint64_t Before = AllocCount.load(std::memory_order_relaxed);
  uint64_t Execs = 0;
  for (auto _ : State) {
    S.execute(Corpus, Mode, RR);
    ++Execs;
  }
  uint64_t Allocs = AllocCount.load(std::memory_order_relaxed) - Before;
  State.counters["allocs_per_exec"] =
      static_cast<double>(Allocs) / static_cast<double>(Execs ? Execs : 1);
}

} // namespace

#define PFUZZ_ALLOC_BENCH(SUBJECT)                                           \
  static void BM_##SUBJECT##_Allocs_Off(benchmark::State &State) {           \
    runAllocBench(State, SUBJECT##Subject(), InstrumentationMode::Off);      \
  }                                                                          \
  BENCHMARK(BM_##SUBJECT##_Allocs_Off);                                      \
  static void BM_##SUBJECT##_Allocs_Comparisons(benchmark::State &State) {   \
    runAllocBench(State, SUBJECT##Subject(),                                 \
                  InstrumentationMode::Comparisons);                         \
  }                                                                          \
  BENCHMARK(BM_##SUBJECT##_Allocs_Comparisons);                              \
  static void BM_##SUBJECT##_Allocs_Full(benchmark::State &State) {          \
    runAllocBench(State, SUBJECT##Subject(), InstrumentationMode::Full);     \
  }                                                                          \
  BENCHMARK(BM_##SUBJECT##_Allocs_Full);

PFUZZ_ALLOC_BENCH(ini)
PFUZZ_ALLOC_BENCH(csv)
PFUZZ_ALLOC_BENCH(json)
PFUZZ_ALLOC_BENCH(tinyc)
PFUZZ_ALLOC_BENCH(mjs)
