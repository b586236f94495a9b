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
#include "runtime/PrefixResumeCache.h"

namespace pfuzz {

class HeartbeatEmitter;

/// One coherent tree of every diagnostic counter a campaign exports —
/// the per-layer `*StatsOut` structs (resume ladder, candidate store,
/// shard sync) plus the campaign-level counts none of them carry
/// (executions, frontier size, run-cache hit counters). Filled from the
/// *same* per-layer sources the individual `*StatsOut` pointers read, at
/// the same point in the campaign, so the old sinks are thin views over
/// this tree: requesting both always yields field-identical values.
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
  /// Memoized-run LRU cache probes (counted while the cache is enabled).
  uint64_t RunCacheLookups = 0;
  /// Probes that replayed a recorded result.
  uint64_t RunCacheHits = 0;

  ResumeStats Resume;
  QueueStats Queue;
  ShardStats Sharding;

  double runCacheHitRate() const {
    return RunCacheLookups == 0 ? 0
                                : static_cast<double>(RunCacheHits) /
                                      static_cast<double>(RunCacheLookups);
  }

  /// Folds \p Other into this: counters sum, FrontierSize takes the max.
  /// The sharded engine folds per-shard snapshots into one campaign
  /// total; campaign runners fold per-seed totals into one per-cell
  /// total — mirroring exactly how each embedded stats struct was
  /// already aggregated through its own sink.
  void accumulate(const TelemetrySnapshot &Other) {
    Executions += Other.Executions;
    ValidInputs += Other.ValidInputs;
    FrontierSize =
        FrontierSize > Other.FrontierSize ? FrontierSize : Other.FrontierSize;
    RunCacheLookups += Other.RunCacheLookups;
    RunCacheHits += Other.RunCacheHits;
    Resume.accumulate(Other.Resume);
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

  /// Capacity (in entries) of the memoized-run LRU cache; 0 disables it.
  /// The search re-executes identical inputs routinely (requeued
  /// prefixes, candidates regenerated after a queue trim); a hit replays
  /// the recorded RunResult instead of re-running the subject. Replay is
  /// behavior-invariant: a hit still counts against the execution budget
  /// and performs identical bookkeeping, so FuzzReports are byte-for-byte
  /// unchanged at any cache size.
  uint32_t RunCacheSize = 64;

  /// Capacity (in suspended runs) of the prefix-resumption pool; 0
  /// disables the engine. With N > 0, executions of resume-safe subjects
  /// run on a fiber, checkpoint themselves at their first past-end read,
  /// and later candidates extending a cached prefix resume from the
  /// checkpoint instead of re-executing the prefix (see
  /// runtime/PrefixResumeCache.h). Resumed runs record byte-for-byte
  /// what cold runs record, so FuzzReports are unchanged at any cache
  /// size — including on builds without fiber support, where the engine
  /// silently degrades to full re-execution.
  uint32_t ResumeCacheSize = 0;

  /// Inputs shorter than this run off the engine's fast path: no fiber,
  /// no checkpoint. The search executes short inputs by the thousands
  /// and each is cheaper to interpret than to checkpoint, so the engine
  /// pays for itself only past a break-even length (~16 bytes on the
  /// built-in subjects). Throughput knob only — reports are identical at
  /// any value.
  uint32_t ResumeMinLength = 16;

  /// Byte stride of the resumption engine's checkpoint ladder: besides
  /// the past-end checkpoint, a run mints a checkpoint at the first read
  /// crossing each multiple of this stride (up to ResumeRungs per run).
  /// Ladder rungs let candidates spliced *below* their parent's EOF
  /// point — every substitution candidate — resume near their splice
  /// instead of running cold. 0 disables mid-run checkpoints. Throughput
  /// knob only — reports are identical at any value.
  uint32_t ResumeStride = 16;

  /// Per-run cap on ladder checkpoints (see ResumeStride).
  uint32_t ResumeRungs = 3;

  /// Optional out-param: the resumption engine's diagnostic counters
  /// (hit rate, bytes skipped). Never part of the report.
  ResumeStats *ResumeStatsOut = nullptr;

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

  /// Optional out-param: the candidate store's diagnostic counters
  /// (pushes, rescore count/time, peak bytes). Never part of the report.
  QueueStats *QueueStatsOut = nullptr;

  /// Shard count of the campaign. 1 (the default) runs the plain
  /// sequential Algorithm 1 loop, byte-identical to every prior engine.
  /// With N > 1 the campaign splits into N concurrent shard loops — each
  /// a full pFuzzer with its own candidate store, run cache and resume
  /// ladder, on its own dedicated thread — that exchange coverage-
  /// frontier deltas and migrate top candidates through core/ShardSync
  /// at deterministic execution-count epochs. The execution budget is
  /// split across shards and the shard reports are merged in stable
  /// shard order, so for a fixed (seed, N) the merged report is
  /// bit-reproducible; different N values explore differently (sharding
  /// is the one perf layer that is *not* behavior-invariant across its
  /// settings — it changes the search, deterministically).
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

  /// Optional out-param: aggregated ShardSync counters of the campaign
  /// (all zero when Shards <= 1). Never part of the report.
  ShardStats *ShardStatsOut = nullptr;

  /// Internal wiring of the sharded engine: the sync endpoint of the
  /// shard campaign being constructed. Callers never set this — the
  /// engine fills it for each shard it spawns.
  ShardEndpoint *SyncEndpoint = nullptr;

  /// Optional out-param: the consolidated telemetry tree, filled when
  /// the campaign finishes from the same sources as the individual
  /// `*StatsOut` sinks above (which remain as thin views). Never part of
  /// the report; filling it changes no report byte.
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
