//===- baselines/KleeFuzzer.h - Constraint-based baseline --------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "semantic" baseline standing in for KLEE: a concolic breadth-first
/// path explorer. Each executed input yields the full ordered set of
/// comparisons on the path (including implicit-flow ones — a symbolic
/// executor does not depend on dynamic taint); for every comparison the
/// explorer forks one state per alternative operand value, substituting it
/// at the comparison's input positions while keeping the suffix. States
/// are explored breadth-first from the empty input.
///
/// Like the paper's KLEE configuration, only inputs that cover new code
/// are emitted. The state queue is what explodes on deep languages — the
/// combinatorial path explosion the paper attributes KLEE's mjs failure
/// to — so shallow languages (json) are covered nearly exhaustively while
/// mjs exhausts the budget within a few characters of depth.
///
/// The explorer draws no random numbers: FuzzerOptions::Seed does not
/// change its campaign. A harness that runs several seeds of a KLEE cell
/// (the benchmarks run three) runs one campaign that many times.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_BASELINES_KLEEFUZZER_H
#define PFUZZ_BASELINES_KLEEFUZZER_H

#include "core/Fuzzer.h"

namespace pfuzz {

/// KLEE-style concolic breadth-first explorer.
class KleeFuzzer final : public Fuzzer {
public:
  std::string_view name() const override { return "klee"; }

  FuzzReport run(const Subject &S, const FuzzerOptions &Opts) override;
};

} // namespace pfuzz

#endif // PFUZZ_BASELINES_KLEEFUZZER_H
