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
/// std::string, and the heap itself is an array of 24-byte
/// (Key, Base, CandidateId, Group) entries. A candidate's full input
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
/// then streams over the heap setting each entry's score to Base + the
/// group's run term without touching the records.
///
/// Pop order: highest score first; among equal scores, the earlier push
/// first. Every push gets the next sequence number, and the order is a
/// total order on (score, sequence), so pops, trim survivors (a trim keeps
/// the first MaxQueue / 2 candidates in this order) and the shard export
/// (exportTop, the next pop) do not depend on how the heap arranges its
/// array. Any structure that pops the maximal (score, sequence) yields the
/// same campaign; tests/core/PFuzzerOracleTest.cpp checks the campaign
/// against an independent reference built on an ordered set. Scores
/// themselves are exact: (a) push-time scores come from the run's
/// captured (unfiltered) branch count, (b) filtering a group's list in
/// place equals filtering each candidate's own copy, because vBr only
/// grows — filter(filter(L, vBr1), vBr2) == filter(L, vBr2) whenever vBr1
/// is a subset of vBr2 — and (c) every score is a half-integer small
/// enough for the packed key to hold exactly (see Entry). See DESIGN.md
/// section 14.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_CORE_CANDIDATESTORE_H
#define PFUZZ_CORE_CANDIDATESTORE_H

#include "core/BranchCoverageMap.h"
#include "core/Heuristic.h"
#include "support/ByteArena.h"
#include "support/FlatHashMap.h"

#include <cstdint>
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
  /// Group branch lists filtered across all rescores.
  uint64_t GroupsFiltered = 0;
  /// Overflow trims (all but the first MaxQueue / 2 in pop order dropped).
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
  /// heap + group lists).
  uint64_t PeakBytes = 0;
  /// High-water mark of queued candidates.
  uint64_t PeakCandidates = 0;
  /// High-water mark of suffix-arena bytes.
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

/// The candidate queue. See the file comment for the pop order.
class CandidateStore {
public:
  /// Null record/run id.
  static constexpr uint32_t None = ~0u;

  /// What pop() hands the campaign, besides the materialized input: the
  /// popped record's pin (the caller releases it when the input stops
  /// being a potential parent) and the fields the verbose trace and the
  /// next iteration's bookkeeping need. Score is decoded from the key.
  struct Popped {
    uint32_t Id = None;
    double Score = 0;
    uint64_t InputHash = 0;
    uint32_t NumParents = 0;
    uint32_t ReplacementLen = 0;
    uint32_t NewBranchCount = 0;
  };

  /// Longest input the store accepts: it keeps every candidate term
  /// below 2^22 in magnitude, the Entry key precondition. PFuzzer rejects
  /// a FuzzerOptions::MaxInputLen above it.
  static constexpr uint32_t MaxExactInputLen = 1u << 20;

  CandidateStore(size_t MaxQueue, const HeuristicOptions &Heur);
  ~CandidateStore();

  CandidateStore(const CandidateStore &) = delete;
  CandidateStore &operator=(const CandidateStore &) = delete;

  /// Mutable so the campaign can fold its own counters (path decays,
  /// path-table peak) into the same sink.
  QueueStats Stats;

  //===--------------------------------------------------------------------===//
  // Lineage
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
  /// substitutions, 0 for requeued prefixes). \p ParentInput must be the
  /// parent's full materialized bytes (see maybeRebase). \p Score must be
  /// a half-integer of magnitude below 2^23. The caller checks
  /// queueSize() against its cap and triggers rescore.
  void push(uint32_t Run, uint32_t Parent, std::string_view ParentInput,
            size_t SpliceAt, std::string_view Suffix, uint64_t Hash,
            uint32_t ReplacementLen, uint32_t ParentDelta, double Score);

  /// Pops the first candidate in pop order: materializes its input into
  /// \p InputOut and returns its metadata. The record stays pinned (the
  /// queue pin transfers to the caller).
  Popped pop(std::string &InputOut);

  size_t queueSize() const;
  bool empty() const { return queueSize() == 0; }

  /// Re-filters every queued candidate's new-branch list against \p VBr
  /// and recomputes all scores (Algorithm 1 lines 40-43); enforces the
  /// queue cap by keeping the first MaxQueue / 2 candidates in pop order
  /// when exceeded. Returns true when a trim happened (the campaign
  /// resets its requeue counters on trim).
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

  /// Copies the next pop out of the store without popping it. The queue
  /// must not be empty. String buffers of \p Out are recycled across
  /// calls.
  void exportTop(Exported &Out) const;

  //===--------------------------------------------------------------------===//
  // Accounting
  //===--------------------------------------------------------------------===//

  /// Exact current queue memory: records, suffix arena, heap entries and
  /// group lists.
  size_t bytesInUse() const;

  /// Folds the current footprint into the Peak* stats. Called
  /// internally at every rescore and every 1024th push; the campaign
  /// calls it once more at the end.
  void samplePeaks();

private:
  /// A queued candidate: input = parent[0, SpliceAt) + suffix.
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
    uint32_t ReplacementLen = 0;
    uint8_t ParentDelta = 0;
    /// Parent-chain length to the nearest root. Bounded by MaxChainDepth:
    /// a record about to gain children at the cap is rebased first (see
    /// maybeRebase), so materialize never walks more than MaxChainDepth+1
    /// records and deep lineages cannot accumulate one ~40-byte ancestry
    /// record per historical byte.
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

  /// One heap element. Key packs the entry's place in the pop order into
  /// one integer, so the heap compares entries with a single unsigned
  /// comparison: the top KeyScoreBits hold 2 * score + KeyBias, the low
  /// KeySeqBits hold the inverted push sequence number (an earlier push
  /// gets the larger value). Keys are unique. Base is the candidate term
  /// and Group the record's group, so a rescore rewrites the score bits
  /// as 2 * Base + Groups[Group].TwiceRunTerm without reading the record
  /// and keeps the sequence bits.
  ///
  /// Exactness precondition: candidate terms are integers below 2^22 in
  /// magnitude (inputs are at most MaxExactInputLen bytes) and run terms
  /// are half-integers below 2^22, so twice their sum is an integer below
  /// 2^24 in magnitude and the biased value fits KeyScoreBits. Asserted on
  /// every pushed score and candidate term and on every run term a
  /// rescore computes; the sequence number is asserted below 2^KeySeqBits.
  struct Entry {
    uint64_t Key = 0;
    int32_t Base = 0;
    uint32_t Id = 0;
    uint32_t Group = 0;
  };
  static constexpr unsigned KeySeqBits = 39;
  static constexpr unsigned KeyScoreBits = 64 - KeySeqBits;
  static constexpr uint64_t KeySeqMask = (uint64_t(1) << KeySeqBits) - 1;
  static constexpr int64_t KeyBias = int64_t(1) << (KeyScoreBits - 1);
  static_assert(sizeof(Entry) == 24, "heap entry outgrew its 24-byte slot");

  /// Run-constant data shared by all candidates of one executed run.
  struct Group {
    /// The run's new-branch list, filtered in place at rescores (see the
    /// file comment for why that equals filtering per candidate).
    std::vector<uint32_t> Branches;
    uint64_t FilterEpoch = 0;
    uint64_t PathHash = 0;
    double AvgStack = 0;
    uint32_t NumParentsBase = 0;
    uint32_t Members = 0;
    /// Twice the run term of the last rescore pass (live groups only);
    /// an integer because the run term is a half-integer.
    int32_t TwiceRunTerm = 0;
    bool RunPinned = false;
  };

  uint32_t allocRecord();
  void freeRecord(uint32_t Id);
  void maybeRebase(uint32_t Id, std::string_view Input);
  uint32_t allocGroup();
  void maybeFreeGroup(uint32_t GroupId);
  void unlinkGroup(uint32_t Id);
  void materialize(uint32_t Id, std::string &Out) const;
  void maybeCompactArena();

  const size_t MaxQueue;
  const HeuristicOptions Heur;

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
  /// Sequence number of the next push (the pop order's tie-break).
  uint64_t NextSeq = 0;
};

} // namespace pfuzz

#endif // PFUZZ_CORE_CANDIDATESTORE_H
