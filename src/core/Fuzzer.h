//===- core/Fuzzer.h - Common fuzzer interface -------------------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface shared by pFuzzer and the baseline fuzzers (AFL-style
/// and KLEE-style), plus the campaign options and the report every
/// campaign produces. The evaluation harness (src/eval) treats all tools
/// uniformly through this interface.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_CORE_FUZZER_H
#define PFUZZ_CORE_FUZZER_H

#include "core/BranchCoverageMap.h"
#include "subjects/Subject.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pfuzz {

/// Options for one fuzzing campaign. The paper ran 48 h wall-clock
/// campaigns; we use execution budgets so the benches reproduce the same
/// comparisons in minutes.
struct FuzzerOptions {
  /// PRNG seed; identical seeds give identical campaigns.
  uint64_t Seed = 1;

  /// Budget: number of subject executions.
  uint64_t MaxExecutions = 20000;

  /// Safety cap on generated input length.
  uint32_t MaxInputLen = 256;

  /// Log search decisions to stderr (debugging aid).
  bool Verbose = false;

  /// Invoked for every *valid* (exit 0) input executed, including
  /// duplicates; used by the harness for token-coverage accounting without
  /// storing millions of inputs.
  std::function<void(std::string_view)> OnValidInput;
};

/// What one campaign produced.
struct FuzzReport {
  /// Number of subject executions performed.
  uint64_t Executions = 0;

  /// The inputs the tool reports: valid inputs that covered new code, in
  /// discovery order (pFuzzer prints exactly these; for the baselines this
  /// is the interesting-valid-input subset).
  std::vector<std::string> ValidInputs;

  /// Distinct branch outcomes (SiteId << 1 | Taken) covered by valid
  /// inputs — the Figure 2 metric. A dense bitmap: membership tests are
  /// the per-execution hot path of every tool.
  BranchCoverageMap ValidBranches;

  /// Coverage growth samples: (executions, |ValidBranches|).
  std::vector<std::pair<uint64_t, uint64_t>> CoverageTimeline;

  /// Branch coverage of valid inputs as a fraction of all branch outcomes
  /// of \p S (two outcomes per site).
  double coverageRatio(const Subject &S) const {
    uint64_t Denominator = 2ull * S.numBranchSites();
    if (Denominator == 0)
      return 0;
    return static_cast<double>(ValidBranches.size()) / Denominator;
  }
};

/// A test generator for instrumented subjects.
class Fuzzer {
public:
  virtual ~Fuzzer();

  /// Tool identifier ("pfuzzer", "afl", "klee").
  virtual std::string_view name() const = 0;

  /// Runs one campaign against \p S.
  virtual FuzzReport run(const Subject &S, const FuzzerOptions &Opts) = 0;
};

} // namespace pfuzz

#endif // PFUZZ_CORE_FUZZER_H
