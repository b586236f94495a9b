//===- runtime/Instrument.h - Subject instrumentation macros ----*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Macros that play the role of the paper's LLVM instrumentation pass.
/// A subject translation unit brackets its code with
///
/// \code
///   PF_INSTRUMENT_BEGIN()
///   ...parser code using PF_BR / PF_IF_EQ / ... / PF_FUNC...
///   PF_INSTRUMENT_END(NumBranchSites)
/// \endcode
///
/// Each macro use is one static *branch site* with a stable, dense id
/// (derived from __COUNTER__, exactly like a compile-time pass numbering
/// conditional branches). PF_INSTRUMENT_END materializes the total site
/// count, giving the gcov-style denominator for branch coverage.
///
/// The compare-and-branch macros both record the tracked comparison (taint,
/// operands) and the branch outcome — mirroring how an instrumented `if
/// (c == '(')` produces a cmp instruction plus a conditional branch.
///
/// Restrictions: one subject per translation unit (the counter space is
/// per-TU), and every PF_* use is one site, so keep them out of headers.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_RUNTIME_INSTRUMENT_H
#define PFUZZ_RUNTIME_INSTRUMENT_H

#include "runtime/ExecutionContext.h"

/// Opens the instrumented region of a subject translation unit.
#define PF_INSTRUMENT_BEGIN()                                                  \
  namespace {                                                                  \
  constexpr int PfCounterBase = __COUNTER__;                                   \
  }

/// Closes the instrumented region and defines `constexpr uint32_t NAME`
/// holding the number of branch sites in this translation unit.
#define PF_INSTRUMENT_END(NAME)                                                \
  namespace {                                                                  \
  constexpr uint32_t NAME = static_cast<uint32_t>(__COUNTER__) -               \
                            static_cast<uint32_t>(PfCounterBase) - 1;          \
  }

/// The id of the branch site at this textual position (one per expansion).
#define PF_SITE_ID                                                             \
  (static_cast<uint32_t>(__COUNTER__) - static_cast<uint32_t>(PfCounterBase) - \
   1)

/// Records a plain conditional branch; evaluates to the condition.
#define PF_BR(CTX, COND) ((CTX).recordBranch(PF_SITE_ID, (COND)))

/// Tracked `c == 'x'` comparison plus its conditional branch.
#define PF_IF_EQ(CTX, C, EXPECTED)                                             \
  ((CTX).recordBranch(PF_SITE_ID, (CTX).cmpEq((C), (EXPECTED))))

/// Tracked range membership (`lo <= c <= hi`) plus its branch.
#define PF_IF_RANGE(CTX, C, LO, HI)                                            \
  ((CTX).recordBranch(PF_SITE_ID, (CTX).cmpRange((C), (LO), (HI))))

/// Tracked set membership (strchr-style) plus its branch.
#define PF_IF_SET(CTX, C, SET)                                                 \
  ((CTX).recordBranch(PF_SITE_ID, (CTX).cmpSet((C), (SET))))

/// Implicit-flow variants: the comparison still executes (and a symbolic
/// executor would see it), but the paper's taint-based extraction cannot —
/// see ComparisonEvent::Implicit. Used for ctype-table lookups and values
/// derived through control dependences.
#define PF_IF_EQ_IMPL(CTX, C, EXPECTED)                                        \
  ((CTX).recordBranch(PF_SITE_ID,                                              \
                      (CTX).cmpEq((C), (EXPECTED), /*Implicit=*/true)))

#define PF_IF_RANGE_IMPL(CTX, C, LO, HI)                                       \
  ((CTX).recordBranch(PF_SITE_ID,                                              \
                      (CTX).cmpRange((C), (LO), (HI), /*Implicit=*/true)))

#define PF_IF_SET_IMPL(CTX, C, SET)                                            \
  ((CTX).recordBranch(PF_SITE_ID,                                              \
                      (CTX).cmpSet((C), (SET), /*Implicit=*/true)))

/// Tracked wrapped-strcmp equality plus its branch.
#define PF_IF_STR(CTX, S, EXPECTED)                                            \
  ((CTX).recordBranch(PF_SITE_ID, (CTX).cmpStr((S), (EXPECTED))))

/// Function-entry instrumentation: call-stack depth tracking plus, in Full
/// mode, the function-call trace (Section 4: "the sequence of function
/// calls together with current stack contents"). The enclosing function's
/// name identifies the activation for derivation-tree mining.
#define PF_FUNC(CTX)                                                           \
  ::pfuzz::ExecutionContext::FunctionScope PfFunctionScope(CTX, __func__)

#endif // PFUZZ_RUNTIME_INSTRUMENT_H
