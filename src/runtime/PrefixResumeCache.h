//===- runtime/PrefixResumeCache.h - Prefix-resumption engine ----*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The prefix-resumption execution layer. pFuzzer's search grows inputs
/// one character at a time, so nearly every candidate is P + suffix for a
/// prefix P the campaign has already executed — yet a plain run replays P
/// from byte 0, a cost that grows quadratically with input length. This
/// layer runs subjects on a fiber (support/Fiber.h) and checkpoints the
/// execution *in passing* at its suspension points: always at the first
/// read past end-of-input — the exact EOF event the search extends
/// candidates on — and, when a rung stride is configured, at a bounded
/// ladder of in-bounds reads along the run (every read first crossing a
/// stride multiple, up to a per-run rung cap). The run then continues to
/// completion as if nothing happened, so every execution still yields its
/// full report; minting a checkpoint costs one stack copy and an O(1)
/// RunMark, never an extra execution or a deep result copy — all rungs of
/// one run share a single reference-counted copy of its final RunResult,
/// which the mark truncates back to the suspension point on restore
/// (valid because result recording is append-only).
///
/// Checkpoints live in PrefixResumeCache, a bounded LRU pool keyed by the
/// FNV-1a hash of the input prefix observed at the suspension point (for
/// a parser that consumed its input and asked for more, the whole input
/// *is* the shared prefix; for a rung, the bytes below the suspended
/// read). Running a candidate probes its prefixes longest-first, walking
/// a sorted index of the lengths actually cached; a hit restores the
/// marked slice of the stored result, memcpys the stack bytes back, and
/// re-enters the suspended read, which now sees the new bytes — skipping
/// the prefix's re-execution entirely. A miss falls back to a cold run on
/// the fiber (which mints fresh checkpoints); hash-collision divergence
/// is caught by comparing the stored prefix bytes before any restore.
/// Ladders make the probe land near the end of *any* candidate sharing a
/// prefix — in particular substitution candidates spliced below their
/// parent's EOF point, which a single end-of-run checkpoint never covers.
///
/// Why resumed runs are byte-identical to cold runs: subjects are pure
/// functions of their input reading only through ExecutionContext, and
/// every byte the checkpointed execution observed is in-bounds in any
/// extension (past-end reads suspend *before* recording). The restored
/// continuation therefore records exactly the events a cold run of the
/// longer input records after its own first |P| bytes — same arena
/// slices, same interned-name ids (restoreFrom rebuilds the remap), same
/// branch trace. Reports cannot tell a resume from a cold run at any
/// cache size.
///
/// Threading contract: one engine belongs to one campaign thread — the
/// fiber, the context storage and the cache are all thread-confined.
/// A suspended run is owned by the sequential loop; shards and parallel
/// seed runs each construct their own engine. Eligibility is per subject
/// (Subject::resumeSafe): only parsers whose frames hold trivially
/// restorable state may be checkpointed.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_RUNTIME_PREFIXRESUMECACHE_H
#define PFUZZ_RUNTIME_PREFIXRESUMECACHE_H

#include "runtime/ExecutionContext.h"
#include "support/Fiber.h"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace pfuzz {

/// Diagnostic counters of the prefix-resumption engine. Observational
/// only — none feed back into the search, so they may vary across cache
/// sizes while FuzzReports stay byte-identical.
struct ResumeStats {
  /// Hit histogram buckets: [0] counts hits on past-end checkpoints,
  /// [k] hits on the k-th stride rung of its minting run; the last
  /// bucket clamps deeper ladders.
  static constexpr size_t RungBuckets = 9;

  /// Probes of the resume cache: one per engine-executed input.
  uint64_t Probes = 0;
  /// Probes that restored a checkpoint instead of running cold.
  uint64_t Hits = 0;
  /// Engine executions that ran the subject from byte 0 (on the fiber).
  uint64_t ColdRuns = 0;
  /// Checkpoints captured at past-end suspension points.
  uint64_t Minted = 0;
  /// Mid-run ladder checkpoints captured at in-bounds stride crossings.
  uint64_t RungsMinted = 0;
  /// Checkpoints evicted by the LRU bound.
  uint64_t Evicted = 0;
  /// Input bytes whose re-execution resumes skipped (sum of hit prefix
  /// lengths) — the engine's whole profit.
  uint64_t BytesSkipped = 0;
  /// Hits bucketed by the hit checkpoint's rung depth (see RungBuckets).
  uint64_t HitsByRung[RungBuckets] = {};

  double hitRate() const {
    return Probes == 0 ? 0 : static_cast<double>(Hits) / Probes;
  }

  /// Average rung depth of the checkpoints hits landed on: 0 when every
  /// hit re-entered a past-end checkpoint, higher when ladder rungs
  /// carry the traffic.
  double avgHitRungDepth() const {
    uint64_t Total = 0, Weighted = 0;
    for (size_t I = 0; I != RungBuckets; ++I) {
      Total += HitsByRung[I];
      Weighted += I * HitsByRung[I];
    }
    return Total == 0 ? 0 : static_cast<double>(Weighted) / Total;
  }

  /// Sums \p Other into this — campaign runners aggregate per-seed
  /// counters into one per-cell total.
  void accumulate(const ResumeStats &Other) {
    Probes += Other.Probes;
    Hits += Other.Hits;
    ColdRuns += Other.ColdRuns;
    Minted += Other.Minted;
    RungsMinted += Other.RungsMinted;
    Evicted += Other.Evicted;
    BytesSkipped += Other.BytesSkipped;
    for (size_t I = 0; I != RungBuckets; ++I)
      HitsByRung[I] += Other.HitsByRung[I];
  }
};

/// Bounded LRU pool of suspended runs keyed by prefix hash. Entries are
/// node-stored (std::list), never moved or copied: a FiberCheckpoint's
/// register context must stay pinned from capture to the last resume.
class PrefixResumeCache {
public:
  struct Entry {
    uint64_t Hash = 0;
    /// Recycle stamp, bumped every time insertSlot (re)assigns this node.
    /// The engine binds shared final results to the entries minted during
    /// a run only if the stamp still matches — an entry evicted and
    /// recycled mid-run silently drops out of the pending batch.
    uint64_t Serial = 0;
    /// The minting prefix, verified byte-for-byte on lookup so a hash
    /// collision degrades to a miss, never to a wrong resume.
    std::string Prefix;
    FiberCheckpoint Stack;
    /// Completed result of the minting run, shared by every rung that
    /// run minted; Mark truncates it back to this entry's suspension
    /// point (RunResult::assignPrefixFrom).
    std::shared_ptr<const RunResult> Final;
    RunMark Mark;
    /// 0 for the past-end checkpoint, k >= 1 for the k-th stride rung of
    /// its minting run.
    uint32_t RungDepth = 0;
  };

  explicit PrefixResumeCache(size_t MaxEntries) : Max(MaxEntries) {}

  /// Returns the entry for \p Hash if present and its stored prefix is
  /// exactly \p Prefix (else null), marking it most recently used.
  Entry *lookup(uint64_t Hash, std::string_view Prefix);

  /// Returns a pinned entry to (re)mint for \p Hash/\p Prefix, evicting
  /// the least recently used entry when full (counted in *\p EvictedOut).
  /// Null when the cache has no capacity. The returned entry's Serial is
  /// freshly stamped; its Stack/Final/Mark are the caller's to fill.
  Entry *insertSlot(uint64_t Hash, std::string_view Prefix,
                    uint64_t *EvictedOut);

  /// True if any cached prefix has length \p Len — lets probes skip hash
  /// lookups for absent lengths.
  bool hasLength(size_t Len) const {
    return Len < LenCount.size() && LenCount[Len] != 0;
  }

  /// Largest cached prefix length <= \p Len, or 0 when none: the probe
  /// loop walks the sorted index of lengths actually cached instead of
  /// scanning every length down from the candidate's size.
  size_t longestLengthAtMost(size_t Len) const;

  size_t size() const { return Index.size(); }
  size_t capacity() const { return Max; }

private:
  void countLength(size_t Len, int Delta);

  size_t Max;
  uint64_t NextSerial = 0;
  /// Front = most recently used.
  std::list<Entry> Lru;
  std::unordered_map<uint64_t, std::list<Entry>::iterator> Index;
  /// How many entries have each prefix length.
  std::vector<uint32_t> LenCount;
  /// The distinct prefix lengths currently cached, sorted ascending and
  /// kept in sync with LenCount on insert/evict.
  std::vector<uint32_t> SortedLens;
};

/// Runs a subject body on a fiber, minting and resuming prefix
/// checkpoints. One engine per campaign; see the file comment for the
/// contracts.
class PrefixResumeEngine final : public PastEndHook {
public:
  /// \p RunBody executes the subject against a context (the core layer
  /// passes Subject::run); \p CacheSize bounds the checkpoint pool.
  /// Inputs shorter than \p MinInput bypass the machinery entirely (no
  /// fiber, no probe, no mint): below the break-even length the fixed
  /// per-run cost — two context switches and the checkpoint memcpy —
  /// exceeds what skipping the prefix saves, and a parser-directed
  /// search executes far more short inputs than long ones. A non-zero
  /// \p RungStride additionally mints up to \p RungCap mid-run ladder
  /// checkpoints per execution, one at the first read crossing each
  /// stride multiple above the resume point. All four are purely
  /// throughput knobs: results are identical at any values.
  PrefixResumeEngine(std::function<int(ExecutionContext &)> RunBody,
                     size_t CacheSize, size_t MinInput = 0,
                     uint32_t RungStride = 0, uint32_t RungCap = 0);
  ~PrefixResumeEngine();

  /// True when this build and process support checkpointed fibers.
  static bool available() { return PFUZZ_FIBERS_AVAILABLE && Fiber::available(); }

  /// One full instrumented execution of \p Input, resumed from the
  /// longest cached prefix when possible, cold otherwise. Returns the
  /// complete RunResult, byte-identical to a cold execution; the
  /// reference stays valid until the next execute() or engine
  /// destruction. \p Scratch lends recycled buffer storage exactly like
  /// Subject::execute's pooled form — the result may live there or in an
  /// engine-owned pool slot (when the run minted checkpoints, which
  /// share its final result), so callers must read through the returned
  /// reference, never through \p Scratch.
  const RunResult &execute(std::string_view Input, RunResult &Scratch);

  const ResumeStats &stats() const { return Stats; }
  const PrefixResumeCache &cache() const { return Cache; }

private:
  bool onPastEnd(ExecutionContext &Ctx) override;
  bool onRungReached(ExecutionContext &Ctx, uint32_t Index) override;
  /// Shared mint path for both suspension points. Returns true on the
  /// restore path (the caller must report "input changed" upward).
  bool mintCheckpoint(ExecutionContext &Ctx, size_t PrefixLen,
                      uint32_t RungDepth);
  /// Returns a pool slot whose RunResult no live checkpoint references.
  std::shared_ptr<RunResult> acquireFinalSlot();
  static void fiberMain(void *SelfV);

  std::function<int(ExecutionContext &)> RunBody;
  PrefixResumeCache Cache;
  /// Inputs below this length run plainly off the fiber (see ctor).
  size_t MinInput;
  /// Ladder geometry: rungs sit at multiples of RungStride, at most
  /// RungCap per run. Stride 0 disables mid-run checkpoints.
  uint32_t RungStride;
  uint32_t RungCap;
  Fiber F;
  ResumeStats Stats;
  /// Rolling FNV-1a: PrefixHash[L] covers Input[0..L) of the input under
  /// execution. Recomputed in one O(n) pass per execute().
  std::vector<uint64_t> PrefixHash;
  /// Every RunResult a surviving checkpoint shares lives here; a slot is
  /// recycled for a new run's final once no entry references it
  /// (use_count back to 1). Bounded by the cache capacity plus one.
  std::vector<std::shared_ptr<RunResult>> FinalPool;
  /// Checkpoints minted by the current run, awaiting their shared final
  /// at the epilogue. The serial detects entries recycled mid-run.
  struct PendingMint {
    PrefixResumeCache::Entry *E;
    uint64_t Serial;
  };
  std::vector<PendingMint> PendingMints;
  /// The context lives in engine-owned storage so its address — captured
  /// by reference into every subject frame on the fiber — is identical
  /// across the runs a checkpoint spans.
  alignas(ExecutionContext) unsigned char CtxMem[sizeof(ExecutionContext)];
  ExecutionContext *Ctx = nullptr;
  int ExitCode = 1;
  /// One past-end checkpoint per run, at the first past-end read.
  bool MintedThisRun = false;
  /// Ladder state of the current run: rungs left to mint and the depth
  /// counter stamped into them.
  uint32_t RungsLeft = 0;
  uint32_t CurRungDepth = 0;
};

} // namespace pfuzz

#endif // PFUZZ_RUNTIME_PREFIXRESUMECACHE_H
