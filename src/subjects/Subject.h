//===- subjects/Subject.h - Program-under-test interface ---------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Subject interface: a program under test. Mirrors the paper's setup
/// (Section 5.1): each subject reads from its input, aborts parsing with a
/// non-zero exit code on the first error, and exits 0 iff the whole input
/// is valid. Subjects are written against the instrumented runtime, so one
/// execution yields a RunResult with comparisons, EOF accesses and branch
/// coverage.
///
/// The five evaluation subjects correspond to Table 1 of the paper:
/// ini (inih), csv (csvparser), json (cJSON), tinyc (Tiny-C), mjs (mJS).
/// A sixth subject, arith, implements the worked example of Section 2.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_SUBJECTS_SUBJECT_H
#define PFUZZ_SUBJECTS_SUBJECT_H

#include "runtime/ExecutionContext.h"

#include <string_view>
#include <vector>

namespace pfuzz {

/// A program under test.
class Subject {
public:
  virtual ~Subject();

  /// Short identifier ("ini", "csv", "json", "tinyc", "mjs", "arith").
  virtual std::string_view name() const = 0;

  /// Number of static branch sites the subject's instrumentation registers;
  /// the branch-coverage denominator is twice this (both outcomes).
  virtual uint32_t numBranchSites() const = 0;

  /// Parses (and, for tinyc/mjs, executes) the input available through
  /// \p Ctx. Returns 0 iff the input is valid.
  virtual int run(ExecutionContext &Ctx) const = 0;

  /// Always false, and nothing in the program reads it. Kept only
  /// because the campaign benchmark's subject wrapper
  /// (bench/campaign/TracedSubject.h) still forwards it.
  bool resumeSafe() const { return false; }

  /// Convenience wrapper: one instrumented execution of \p Input.
  RunResult execute(std::string_view Input,
                    InstrumentationMode Mode = InstrumentationMode::Full) const;

  /// Pooled execution: like execute(), but recycles \p InOut as the
  /// result storage — its contents are cleared, its heap buffers
  /// (BranchTrace, Comparisons, CallTrace, ...) are reused, and the new
  /// result is moved back into it. Campaign loops call this with one
  /// long-lived RunResult so the per-execution hot path allocates
  /// nothing.
  void execute(std::string_view Input, InstrumentationMode Mode,
               RunResult &InOut) const;

  /// Returns true iff \p Input is accepted (exit code 0), using the
  /// cheapest instrumentation mode.
  bool accepts(std::string_view Input) const;
};

/// Accessors for the built-in subjects. Each returns a process-lifetime
/// singleton (lazily constructed; no global constructors).
const Subject &arithSubject();
const Subject &dyckSubject();
const Subject &iniSubject();
const Subject &csvSubject();
const Subject &jsonSubject();
const Subject &ll1ArithSubject();
const Subject &tinycSubject();
const Subject &mjsSubject();

/// mjs with the Section 7.3 semantic checks enabled (reads of undeclared
/// identifiers fail after parsing); not part of the paper's evaluation
/// set.
const Subject &mjsSemSubject();

/// Looks a subject up by name; returns nullptr when unknown.
const Subject *findSubject(std::string_view Name);

/// The five evaluation subjects of Table 1, in the paper's order.
std::vector<const Subject *> evaluationSubjects();

/// All built-in subjects (evaluation subjects plus arith).
std::vector<const Subject *> allSubjects();

} // namespace pfuzz

#endif // PFUZZ_SUBJECTS_SUBJECT_H
