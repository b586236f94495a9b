//===- core/PFuzzer.h - Parser-directed fuzzer -------------------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// pFuzzer — the paper's contribution (Section 3, Algorithm 1). Grows
/// inputs one character at a time: EOF accesses trigger appends, rejected
/// characters are replaced with values the parser compared them against
/// (keyword strcmps splice whole keywords), and a branch-coverage-based
/// heuristic queue chooses which candidate to execute next. Every valid
/// input that covers new code is emitted.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_CORE_PFUZZER_H
#define PFUZZ_CORE_PFUZZER_H

#include "core/CandidateStore.h"
#include "core/Fuzzer.h"
#include "core/Heuristic.h"

namespace pfuzz {

class HeartbeatEmitter;

/// Every diagnostic counter a campaign exports, in one tree: the
/// candidate store's counters plus the campaign-level counts it does not
/// carry (executions, valid inputs, frontier size).
/// Purely observational — never part of the report, never feeds back
/// into the search.
struct TelemetrySnapshot {
  /// Subject executions performed (== FuzzReport::Executions).
  uint64_t Executions = 0;
  /// Valid inputs emitted (== FuzzReport::ValidInputs.size()).
  uint64_t ValidInputs = 0;
  /// Covered branch outcomes in the final frontier. Accumulation takes
  /// the max — frontiers of different runs overlap, so a sum would
  /// double-count; the max reports the largest single-run frontier.
  uint64_t FrontierSize = 0;
  /// Always 0: every execution runs the subject, nothing is replayed.
  /// Kept only because the campaign benchmark's run accounting
  /// (bench/campaign) still reads these two fields; with both at 0 its
  /// check says that every execution ran the subject exactly once.
  uint64_t RunCacheLookups = 0;
  uint64_t RunCacheHits = 0;

  QueueStats Queue;

  /// Folds \p Other into this: counters sum, FrontierSize takes the max.
  /// A sharded campaign folds per-shard snapshots into one campaign
  /// total; campaign runners fold per-seed totals into one per-cell
  /// total.
  void accumulate(const TelemetrySnapshot &Other) {
    Executions += Other.Executions;
    ValidInputs += Other.ValidInputs;
    FrontierSize =
        FrontierSize > Other.FrontierSize ? FrontierSize : Other.FrontierSize;
    Queue.accumulate(Other.Queue);
  }
};

/// pFuzzer configuration beyond the heuristic terms.
struct PFuzzerOptions {
  HeuristicOptions Heur;

  /// Queue cap: when a push or rescore finds more candidates than this,
  /// the next re-rank keeps the first MaxQueue / 2 in pop order (the
  /// paper's prototype lets the queue grow; we bound memory). Also caps
  /// the path-count table, whose entries decay when it outgrows the cap.
  /// A knob mainly so tests can exercise trim pressure and path decay on
  /// small campaigns; the default matches the historical constant.
  /// PFuzzer::run throws std::invalid_argument below 2.
  size_t MaxQueue = 100000;

  /// Shard count of the campaign. 1 (the default) runs one Algorithm 1
  /// campaign. With N > 1 the campaign fans out into N independent
  /// campaigns on parallelFor (support/Parallel.h): shard I runs at seed
  /// shardSeed(Seed, I) with its share of the execution budget, and the
  /// shard reports are reduced in shard order (union of the covered
  /// branches, concatenated valid inputs, offset timelines). The shards
  /// share nothing while they run, so for a fixed (seed, N) the merged
  /// report is bit-reproducible whatever the thread count. PFuzzer::run
  /// throws std::invalid_argument for 0.
  uint32_t Shards = 1;

  /// Optional out-param: the campaign's telemetry tree, filled when the
  /// campaign finishes. Never part of the report; filling it changes no
  /// report byte.
  TelemetrySnapshot *TelemetryOut = nullptr;

  /// Optional heartbeat stream (see support/Telemetry.h): every
  /// HeartbeatEmitter::interval() executions the campaign samples its
  /// local state and emits one NDJSON record. Shared across shards —
  /// they tick one common execution counter. Read-only with
  /// respect to the search: one branch per execution when null, one
  /// relaxed increment when armed, reports byte-identical either way.
  HeartbeatEmitter *Heartbeat = nullptr;
};

/// The seed of shard \p Shard of a campaign at \p Seed: a SplitMix64
/// finalizer over (seed, shard), so shard streams are decorrelated. Shard
/// 0 deliberately maps away from the campaign seed, so an N-shard
/// campaign is not the unsharded one plus N - 1 extra searches.
uint64_t shardSeed(uint64_t Seed, uint32_t Shard);

/// The parser-directed fuzzer.
class PFuzzer final : public Fuzzer {
public:
  explicit PFuzzer(HeuristicOptions Heur = HeuristicOptions());
  explicit PFuzzer(PFuzzerOptions Options);

  std::string_view name() const override { return "pfuzzer"; }

  FuzzReport run(const Subject &S, const FuzzerOptions &Opts) override;

private:
  PFuzzerOptions Options;
};

} // namespace pfuzz

#endif // PFUZZ_CORE_PFUZZER_H
