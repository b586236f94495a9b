//===- core/CandidateStore.h - Compact candidate queue store -----*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The candidate priority queue of Algorithm 1, stored compactly: a
/// queued candidate is a 40-byte POD record (parent id, splice point,
/// suffix slice in a shared byte arena, input hash) instead of an owned
/// std::string, and the heap itself is an array of 16-byte
/// (Score, Base, CandidateId, Group) entries. A candidate's full input
/// bytes exist only on demand — materialize() walks the parent chain and
/// reassembles the prefix + suffix segments — so queue memory is
/// O(candidates + distinct-suffix-bytes) instead of O(candidates x
/// input-length), and pushing a candidate allocates nothing in steady
/// state.
///
/// Records that share one parent run's new-branch list are chained into a
/// *group* holding the list plus the run-constant heuristic terms
/// (average stack depth, path hash, parent-chain base). A score is the
/// sum of a run term shared by the whole group and a candidate term fixed
/// at push (see core/Heuristic.h), so a rescore walks the live groups
/// once — filtering each list and looking its path count up once — and
/// then streams over the heap setting Score = Base + the group's run
/// term without touching the records.
///
/// Determinism contract: the heap uses the exact positional
/// std::push_heap / std::pop_heap / std::make_heap / std::nth_element
/// calls and the same score-only comparator as the string-backed queue,
/// so with identical scores the permutations — and therefore the pop
/// sequence, trim survivors, and every FuzzReport byte — are identical.
/// Scores are identical because (a) push-time scores are computed by the
/// campaign from the run's captured (unfiltered) branch count, exactly
/// as the string-backed queue scores pushes after a mid-iteration
/// rescore, (b) in-place group filtering is observationally
/// equivalent to copy-on-rescore: vBr only grows, so
/// filter(filter(L, vBr1), vBr2) == filter(L, vBr2) whenever vBr1 is a
/// subset of vBr2 — a list filtered early yields the same count at every
/// later rescore as the original list filtered late, and (c) every score
/// is a half-integer small enough for the heap entry's float to hold it
/// exactly (see Entry). See DESIGN.md §14.
///
/// Constructed with Reference = true the store instead keeps a faithful
/// by-value candidate heap (owned std::string + shared_ptr branch list +
/// copy-on-rescore map — the pre-store implementation, preserved
/// verbatim) behind the same interface. The identity sweep test runs
/// both modes and asserts byte-identical reports; the benches use it for
/// honest before/after memory and throughput numbers.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_CORE_CANDIDATESTORE_H
#define PFUZZ_CORE_CANDIDATESTORE_H

#include "core/BranchCoverageMap.h"
#include "core/Heuristic.h"
#include "support/ByteArena.h"
#include "support/FlatHashMap.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pfuzz {

/// How often each parse path was taken; owned by the campaign (which
/// also decays it), read by the store's rescore pass.
using PathCountMap = FlatHashMap<uint32_t>;

/// Diagnostic counters of the candidate store. Purely observational:
/// none feed back into the search, so they can vary while the FuzzReport
/// stays byte-identical. Byte figures are sampled (every rescore, every
/// 1024th push, and at campaign end), so PeakBytes is a high-water mark
/// of the sampled points, not of every instant.
struct QueueStats {
  /// Candidates pushed into the queue (substitutions + requeues).
  uint64_t Pushes = 0;
  /// Full rescore passes over the queue.
  uint64_t Rescores = 0;
  /// Wall time spent inside rescore passes.
  uint64_t RescoreNanos = 0;
  /// Distinct branch lists filtered across all rescores (group slices in
  /// the compact store, copy-on-rescore map entries in reference mode).
  uint64_t GroupsFiltered = 0;
  /// Overflow trims (worst-scored half dropped).
  uint64_t Trims = 0;
  /// Candidates dropped by trims.
  uint64_t TrimmedCandidates = 0;
  /// Suffix-arena compactions after trims.
  uint64_t Compactions = 0;
  /// Arena bytes reclaimed by compactions.
  uint64_t ArenaBytesReclaimed = 0;
  /// Path-table decays performed by the campaign (see
  /// PFuzzer.cpp:notePath).
  uint64_t PathDecays = 0;
  /// Sampled high-water mark of total queue memory (records + arena +
  /// heap + group lists; reference mode counts strings and shared lists).
  uint64_t PeakBytes = 0;
  /// High-water mark of queued candidates.
  uint64_t PeakCandidates = 0;
  /// High-water mark of suffix-arena bytes (0 in reference mode).
  uint64_t PeakArenaBytes = 0;
  /// High-water mark of live groups (distinct parent runs with queued
  /// candidates or a live run handle).
  uint64_t PeakGroups = 0;
  /// High-water mark of the campaign's path table.
  uint64_t PeakPathTable = 0;

  /// Sums counters and maxes high-water marks — campaign runners
  /// aggregate per-seed stats into one per-cell total.
  void accumulate(const QueueStats &Other);
};

/// The candidate queue. See the file comment for the two storage modes.
class CandidateStore {
public:
  /// Null record/run id.
  static constexpr uint32_t None = ~0u;

  /// What pop() hands the campaign, besides the materialized input: the
  /// popped record's pin (compact mode; the caller releases it when the
  /// input stops being a potential parent) and the fields the verbose
  /// trace and the next iteration's bookkeeping need.
  struct Popped {
    uint32_t Id = None;
    double Score = 0;
    uint64_t InputHash = 0;
    uint32_t NumParents = 0;
    uint32_t ReplacementLen = 0;
    uint32_t NewBranchCount = 0;
  };

  /// Longest input the store accepts: it keeps every candidate term
  /// below 2^22 in magnitude, the Entry precondition. PFuzzer rejects a
  /// FuzzerOptions::MaxInputLen above it.
  static constexpr uint32_t MaxExactInputLen = 1u << 20;

  CandidateStore(bool Reference, size_t MaxQueue,
                 const HeuristicOptions &Heur);
  ~CandidateStore();

  CandidateStore(const CandidateStore &) = delete;
  CandidateStore &operator=(const CandidateStore &) = delete;

  /// Mutable so the campaign can fold its own counters (path decays,
  /// path-table peak) into the same sink.
  QueueStats Stats;

  //===--------------------------------------------------------------------===//
  // Lineage (compact mode; no-ops returning None in reference mode)
  //===--------------------------------------------------------------------===//

  /// Interns \p Input as a chain root (campaign start / restart) and
  /// returns its pinned record id.
  uint32_t internRoot(std::string_view Input, uint64_t Hash);

  /// Interns parent[0, SpliceAt) + \p Suffix as a pinned record — the
  /// campaign's random-extension input, so the extension's substitution
  /// children can reference it as their parent. \p ParentInput must be
  /// the parent's full materialized bytes (used to rebase a deep chain,
  /// see maybeRebase).
  uint32_t internChild(uint32_t Parent, size_t SpliceAt,
                       std::string_view ParentInput, std::string_view Suffix,
                       uint64_t Hash);

  /// Drops one pin of \p Id. A record with no pins left is freed and the
  /// release cascades up its parent chain. release(None) is a no-op.
  void release(uint32_t Id);

  //===--------------------------------------------------------------------===//
  // Run lifecycle
  //===--------------------------------------------------------------------===//

  /// Opens a group for one executed run: \p NewBranches (copied; the
  /// campaign's scratch is reusable afterwards) plus the run-constant
  /// heuristic terms every candidate of this run shares. The group is
  /// pinned until releaseRun and lives on while queued members reference
  /// it.
  uint32_t makeRun(const std::vector<uint32_t> &NewBranches,
                   uint64_t FilterEpoch, double AvgStack, uint64_t PathHash,
                   uint32_t NumParentsBase);

  /// Drops the run pin of \p Run (end of the loop iteration that
  /// executed it). releaseRun(None) is a no-op.
  void releaseRun(uint32_t Run);

  //===--------------------------------------------------------------------===//
  // Queue operations
  //===--------------------------------------------------------------------===//

  /// Pushes the candidate parent[0, SpliceAt) + \p Suffix with
  /// \p Score, attached to \p Run's group; the store derives the
  /// candidate term from the length, \p ReplacementLen and
  /// \p ParentDelta. \p Hash must be the FNV-1a hash of the full
  /// candidate bytes (the campaign derives it from a
  /// prefix-hash array without building the string). \p ParentDelta is
  /// the candidate's parent-chain growth over the group's base (1 for
  /// substitutions, 0 for requeued prefixes). Compact mode stores a
  /// record + suffix bytes; reference mode builds the full string from
  /// \p ParentInput. The caller checks queueSize() against its cap and
  /// triggers rescore, mirroring the original push-then-maybe-trim
  /// order.
  void push(uint32_t Run, uint32_t Parent, std::string_view ParentInput,
            size_t SpliceAt, std::string_view Suffix, uint64_t Hash,
            uint32_t ReplacementLen, uint32_t ParentDelta, double Score);

  /// Pops the best-scored candidate: materializes its input into
  /// \p InputOut and returns its metadata. In compact mode the record
  /// stays pinned (the queue pin transfers to the caller).
  Popped pop(std::string &InputOut);

  size_t queueSize() const;
  bool empty() const { return queueSize() == 0; }

  /// Re-filters every queued candidate's new-branch list against \p VBr
  /// and recomputes all scores (Algorithm 1 lines 40-43); enforces the
  /// queue cap by dropping the worst-scored half when exceeded. Returns
  /// true when a trim happened (the campaign resets its requeue counters
  /// on trim, as before).
  bool rescore(const BranchCoverageMap &VBr, const PathCountMap &PathCounts);

  //===--------------------------------------------------------------------===//
  // Shard export
  //===--------------------------------------------------------------------===//

  /// Everything a candidate needs to cross a shard boundary (see
  /// core/ShardSync.h): full bytes, hash, and the run features an
  /// importing shard rescores against its own coverage. Branches is the
  /// candidate's group list as last filtered *here* — importers re-filter
  /// it against their own vBr, which monotone filtering makes exact.
  struct Exported {
    std::string Bytes;
    uint64_t Hash = 0;
    std::vector<uint32_t> Branches;
    double AvgStack = 0;
    uint64_t PathHash = 0;
    uint32_t NumParents = 0;
    uint32_t ReplacementLen = 0;
  };

  /// Copies the candidate at heap position \p Pos (0 = the next pop) out
  /// of the store. String buffers of \p Out are recycled across calls.
  void exportAt(size_t Pos, Exported &Out) const;

  //===--------------------------------------------------------------------===//
  // Accounting
  //===--------------------------------------------------------------------===//

  /// Exact current queue memory: records, suffix arena, heap entries and
  /// group lists in compact mode; candidate structs, string heap
  /// allocations and distinct shared branch lists in reference mode.
  size_t bytesInUse() const;

  /// Folds the current footprint into the Peak* stats. Called
  /// internally at every rescore and every 1024th push; the campaign
  /// calls it once more at the end.
  void samplePeaks();

private:
  /// Immutable branch list shared between every reference-mode candidate
  /// spawned from the same parent run (the pre-store representation).
  using SharedBranches = std::shared_ptr<const std::vector<uint32_t>>;

  /// A compact queued candidate: input = parent[0, SpliceAt) + suffix.
  /// Refs counts pins (one per queue entry, campaign handle, or child
  /// record); a record is freed when it reaches zero.
  struct Record {
    uint64_t InputHash = 0;
    uint32_t Parent = None;
    uint32_t SpliceAt = 0;
    uint32_t SuffixOfs = 0;
    uint32_t SuffixLen = 0;
    uint32_t Group = None;
    uint32_t Refs = 0;
    uint16_t ReplacementLen = 0;
    uint8_t ParentDelta = 0;
    /// Parent-chain length to the nearest root. Bounded by MaxChainDepth:
    /// a record about to gain children at the cap is rebased first (see
    /// maybeRebase), so materialize never walks more than MaxChainDepth+1
    /// records and deep lineages cannot accumulate one ~40-byte ancestry
    /// record per historical byte. Fits the struct's existing padding.
    uint8_t Depth = 0;
  };

  /// Chain-depth cap. Rebasing copies the record's full bytes into the
  /// arena once per MaxChainDepth generations of a lineage — amortized
  /// len/MaxChainDepth arena bytes per record versus one ~40-byte record
  /// per chain link without it — and bounds the materialize walk.
  static constexpr uint8_t MaxChainDepth = 4;

  static_assert(sizeof(Record) == 40,
                "Record outgrew its slot; the queue-memory math in "
                "DESIGN.md section 14 assumes 40-byte records");

  /// One heap element; the comparator reads Score only, so heap
  /// permutations match the by-value queue's exactly. Base is the
  /// candidate term and Group the record's group, so a rescore computes
  /// Score = Base + Groups[Group].RunTerm without reading the record.
  ///
  /// Exactness precondition: a float holds every half-integer of
  /// magnitude below 2^23 exactly. Candidate terms are integers below
  /// 2^22 in magnitude (inputs are at most MaxExactInputLen bytes) and
  /// run terms are half-integers below 2^22, so their sum — and every
  /// score stored here — is the exact value the by-value queue computes
  /// in double. Asserted on every pushed score and candidate term and on
  /// every run term a rescore computes.
  struct Entry {
    float Score = 0;
    int32_t Base = 0;
    uint32_t Id = 0;
    uint32_t Group = 0;
  };
  static_assert(sizeof(Entry) == 16,
                "a wider heap entry costs the json queue-memory ratio its "
                "2x floor; see DESIGN.md section 14");

  /// Run-constant data shared by all candidates of one executed run.
  /// Reference mode's shared_ptr list lives in the parallel RefShared
  /// vector, not here: with a few candidates per group the group slab is
  /// a real fraction of compact-mode memory, and a 16-byte field only
  /// reference mode reads would inflate it for nothing.
  struct Group {
    /// Compact mode: the run's new-branch list, filtered in place at
    /// rescores (see the file comment for why that is equivalent to
    /// copy-on-rescore).
    std::vector<uint32_t> Branches;
    uint64_t FilterEpoch = 0;
    uint64_t PathHash = 0;
    double AvgStack = 0;
    uint32_t NumParentsBase = 0;
    uint32_t Members = 0;
    /// Run term of the last rescore pass (live groups only).
    float RunTerm = 0;
    bool RunPinned = false;
  };

  /// A reference-mode candidate — the pre-store by-value layout,
  /// preserved field for field so its memory footprint is the honest
  /// baseline.
  struct RefCandidate {
    std::string Input;
    uint32_t NumParents = 0;
    double AvgStack = 0;
    uint32_t ReplacementLen = 1;
    SharedBranches NewBranches;
    uint64_t FilterEpoch = 0;
    uint64_t PathHash = 0;
    uint64_t InputHash = 0;
    double Score = 0;
  };

  uint32_t allocRecord();
  void freeRecord(uint32_t Id);
  void maybeRebase(uint32_t Id, std::string_view Input);
  uint32_t allocGroup();
  void maybeFreeGroup(uint32_t GroupId);
  void unlinkGroup(uint32_t Id);
  void materialize(uint32_t Id, std::string &Out) const;
  void maybeCompactArena();

  const bool Reference;
  const size_t MaxQueue;
  const HeuristicOptions Heur;

  // Compact mode state.
  std::vector<Record> Records;
  /// Head of the intrusive free list threaded through freed records'
  /// Parent fields — no side vector of free ids.
  uint32_t FreeHead = None;
  std::vector<Entry> Entries;
  std::vector<Group> Groups;
  std::vector<uint32_t> FreeGroups;
  ByteArena Arena;
  /// Suffix bytes owned by freed records; compaction reclaims them.
  size_t ArenaGarbage = 0;
  size_t LiveGroups = 0;
  /// Capacity bytes of every group slot's branch list, kept current where
  /// a list's capacity changes (makeRun's copy, maybeFreeGroup's release)
  /// so bytesInUse need not walk the slab. Filtering shrinks a list's
  /// size, never its capacity.
  size_t GroupListBytes = 0;
  uint64_t PushTick = 0;

  // Reference mode state.
  std::vector<RefCandidate> RefQueue;
  /// Per-group shared immutable branch list (indexed by group id);
  /// populated in reference mode only — see the Group comment.
  std::vector<SharedBranches> RefShared;
};

} // namespace pfuzz

#endif // PFUZZ_CORE_CANDIDATESTORE_H
