//===- runtime/Interning.h - Process-wide function-name interning -*- C++ -*-=//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide interning of the __func__ literals PF_FUNC hands to the
/// runtime. The set of distinct function-name pointers is fixed at link
/// time and tiny (one per instrumented function), so interning happens in
/// a flat open-addressed table keyed by pointer identity: lookups are a
/// couple of probes with no locking, and only the first-ever sighting of
/// a literal takes a mutex to register it. This replaces the per-execution
/// std::map every ExecutionContext used to build — tree-node allocations
/// and O(log n) probes on every function entry, paid millions of times per
/// campaign.
///
/// This is the one piece of process-wide state instrumented executions
/// share, so its thread-safety carries the whole runtime's concurrency
/// contract: shard loops and parallel campaign seeds intern
/// concurrently with no synchronization beyond this table's own
/// (lock-free probes, mutex only on first-ever registration — a bounded
/// startup cost, since the set of literals is fixed at link time).
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_RUNTIME_INTERNING_H
#define PFUZZ_RUNTIME_INTERNING_H

#include <cstdint>

namespace pfuzz {

/// Returns the process-wide dense id of the function-name literal
/// \p Name, assigning the next free id on first sight. Keyed by pointer
/// identity — string literals are stable for the process lifetime, which
/// is exactly the key the old per-execution map used. Thread-safe:
/// lock-free for already-registered names, mutex-guarded registration.
uint32_t internFunctionName(const char *Name);

} // namespace pfuzz

#endif // PFUZZ_RUNTIME_INTERNING_H
