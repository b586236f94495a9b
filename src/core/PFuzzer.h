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
#include "core/ShardSync.h"

namespace pfuzz {

class HeartbeatEmitter;

/// Every diagnostic counter a campaign exports, in one tree: the
/// candidate store's and shard sync's counters plus the campaign-level
/// counts neither carries (executions, valid inputs, frontier size).
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
  ShardStats Sharding;

  /// Folds \p Other into this: counters sum, FrontierSize takes the max.
  /// The sharded engine folds per-shard snapshots into one campaign
  /// total; campaign runners fold per-seed totals into one per-cell
  /// total.
  void accumulate(const TelemetrySnapshot &Other) {
    Executions += Other.Executions;
    ValidInputs += Other.ValidInputs;
    FrontierSize =
        FrontierSize > Other.FrontierSize ? FrontierSize : Other.FrontierSize;
    Queue.accumulate(Other.Queue);
    Sharding.accumulate(Other.Sharding);
  }
};

/// pFuzzer configuration beyond the heuristic terms.
struct PFuzzerOptions {
  HeuristicOptions Heur;

  /// Section 2 offers two continuations after a valid input: "we may
  /// decide to output the string and reset the prefix to empty string,
  /// or continue with the generated prefix". The default continues;
  /// setting this stops expanding valid inputs (their substitution
  /// children and re-extensions are not enqueued).
  bool ResetOnValid = false;

  /// Queue cap: when a push or rescore finds more candidates than this,
  /// the next re-rank drops the worst-scored half (the paper's prototype
  /// lets the queue grow; we bound memory). Also caps the path-count
  /// table, whose entries decay when it outgrows the cap. A knob mainly
  /// so tests can exercise trim pressure and path decay on small
  /// campaigns; the default matches the historical constant.
  size_t MaxQueue = 100000;

  /// Store candidates as full by-value strings (the pre-store
  /// representation) instead of compact prefix-suffix records. The
  /// search trajectory is byte-identical either way — this exists so the
  /// identity sweep test and the queue benches can compare the two
  /// representations honestly.
  bool ReferenceQueue = false;

  /// Shard count of the campaign. 1 (the default) runs the plain
  /// sequential Algorithm 1 loop, byte-identical to every prior engine.
  /// With N > 1 the campaign splits into N concurrent shard loops — each
  /// a full pFuzzer with its own candidate store, on its own dedicated
  /// thread — that exchange coverage-frontier deltas and migrate top
  /// candidates through core/ShardSync at deterministic execution-count
  /// epochs. The execution budget is split across shards and the shard
  /// reports are merged in stable shard order, so for a fixed (seed, N)
  /// the merged report is bit-reproducible; different N values explore
  /// differently (sharding changes the search, deterministically).
  ///
  /// Shard loops run on dedicated threads, all started at once: a shard
  /// blocks at epoch boundaries waiting for peers, so every peer must be
  /// running for the waited-on packet to arrive.
  uint32_t Shards = 1;

  /// Executions per shard between synchronization epochs (delta publish
  /// + peer merge + candidate migration). Smaller intervals tighten the
  /// joint frontier at more sync overhead. Part of the deterministic
  /// protocol: changing it changes the (reproducible) sharded search.
  uint32_t ShardSyncInterval = 512;

  /// Internal wiring of the sharded engine: the sync endpoint of the
  /// shard campaign being constructed. Callers never set this — the
  /// engine fills it for each shard it spawns.
  ShardEndpoint *SyncEndpoint = nullptr;

  /// Optional out-param: the campaign's telemetry tree, filled when the
  /// campaign finishes. Never part of the report; filling it changes no
  /// report byte.
  TelemetrySnapshot *TelemetryOut = nullptr;

  /// Optional heartbeat stream (see support/Telemetry.h): every
  /// HeartbeatEmitter::interval() executions the campaign samples its
  /// shard-local state and emits one NDJSON record. Shared across shard
  /// loops — they tick one common execution counter. Read-only with
  /// respect to the search: one branch per execution when null, one
  /// relaxed increment when armed, reports byte-identical either way.
  HeartbeatEmitter *Heartbeat = nullptr;
};

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
