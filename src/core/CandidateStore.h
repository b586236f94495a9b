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
/// std::string, plus one 24-byte heap node. A candidate's full input
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
/// at push (see core/Heuristic.h). The queue is built on that split:
///
///   - each group keeps its rescored members in a pairing heap keyed by
///     the candidate term alone — adding the same run term to every
///     member does not change their order;
///   - one indexed heap orders the groups by run term + best member;
///   - candidates pushed since the last rescore wait in a small side heap
///     under their push-time scores, which can differ from candidate +
///     run term (the requeue penalty, the captured branch count, the
///     path count at push time), just as in the reference of
///     tests/core/ReferencePFuzzer.h. pop() takes the larger of the two
///     tops.
///
/// A rescore pass drains the side heap into the groups. When nothing but
/// path counts moved since the last pass, it re-terms only the groups on
/// the paths the campaign reported (pathCountMoved) and sifts each once;
/// when vBr grew, a trim is due or the path table decayed, it re-terms
/// every live group, trims, and rebuilds the group heap.
///
/// Pop order: highest score first; among equal scores, the earlier push
/// first. Every push gets the next sequence number, and the order is a
/// total order on (score, sequence), so pops, trim survivors (a trim keeps
/// the first MaxQueue / 2 candidates in this order) and the shard export
/// (exportTop, the next pop) do not depend on how the heaps arrange their
/// arrays. Any structure that pops the maximal (score, sequence) yields
/// the same campaign; tests/core/PFuzzerOracleTest.cpp checks the campaign
/// against an independent reference built on an ordered set. Scores
/// themselves are exact: (a) push-time scores come from the run's
/// captured (unfiltered) branch count, (b) filtering a group's list in
/// place equals filtering each candidate's own copy, because vBr only
/// grows — filter(filter(L, vBr1), vBr2) == filter(L, vBr2) whenever vBr1
/// is a subset of vBr2 — (c) a group's run term is a function of its
/// filtered list and its capped path count alone, so a pass that saw
/// neither change keeps it, and (d) every score is a half-integer small
/// enough for the packed key to hold exactly (see Node). See DESIGN.md
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
  /// Candidates pushed into the queue (substitutions + requeues +
  /// migrations). Pushes == DedupProbes - DedupHits + Requeues.
  uint64_t Pushes = 0;
  /// Probes of the campaign's seen-candidate set (one per substitution
  /// candidate and per migrated candidate considered) and those that
  /// found the candidate already seen, so it was not pushed.
  uint64_t DedupProbes = 0;
  uint64_t DedupHits = 0;
  /// Requeued prefixes; they bypass the seen-candidate set.
  uint64_t Requeues = 0;
  /// Rescore passes over the queue, full and incremental.
  uint64_t Rescores = 0;
  /// Passes that re-termed every live group because vBr grew, a trim was
  /// due or the path table decayed since the previous pass.
  uint64_t FullRescores = 0;
  /// Groups re-termed by incremental passes (live groups on a path whose
  /// capped count moved).
  uint64_t DirtyGroups = 0;
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
  /// below 2^22 in magnitude, the Node key precondition. PFuzzer rejects
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

  size_t queueSize() const { return QueueLen; }
  bool empty() const { return QueueLen == 0; }

  /// Gives every queued candidate the score its current features earn:
  /// new-branch list filtered against \p VBr, path count from
  /// \p PathCounts (Algorithm 1 lines 40-43). Enforces the queue cap by
  /// keeping the first MaxQueue / 2 candidates in pop order when
  /// exceeded. Returns true when a trim happened (the campaign resets its
  /// requeue counters on trim).
  ///
  /// The pass re-terms only the groups whose term can have moved, so the
  /// caller must report every change to \p PathCounts between passes
  /// that moves a capped count (pathCountMoved) and every decay
  /// (pathCountsDecayed). \p VBr must only grow.
  bool rescore(const BranchCoverageMap &VBr, const PathCountMap &PathCounts);

  /// Records that min(count, PathPenaltyCap) of \p PathHash moved since
  /// the last pass, so the next pass re-terms the groups on that path.
  /// Only needed while HeuristicOptions::PathNovelty is on.
  void pathCountMoved(uint64_t PathHash) { DirtyPaths.push_back(PathHash); }

  /// Records that the path table decayed: the next pass re-terms every
  /// group.
  void pathCountsDecayed() { PathsDecayed = true; }

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

  /// One queued candidate in the heaps. Key packs the candidate's place
  /// in its group into one integer, so heaps compare nodes with a single
  /// unsigned comparison: the top KeyScoreBits hold 2 * candidate term +
  /// KeyBias, the low KeySeqBits hold the inverted push sequence number
  /// (an earlier push gets the larger value). Adding twice the group's
  /// run term to the score bits (fullKey) gives the candidate's place in
  /// the pop order; keys are unique. Free nodes have Id None and chain
  /// through Sibling. Child and Sibling link the group's pairing heap.
  ///
  /// Exactness precondition: candidate terms are integers below 2^22 in
  /// magnitude (inputs are at most MaxExactInputLen bytes) and run terms
  /// are half-integers below 2^22, so twice their sum is an integer below
  /// 2^24 in magnitude and the biased value fits KeyScoreBits. Asserted on
  /// every pushed score and candidate term and on every run term a
  /// rescore computes; the sequence number is asserted below 2^KeySeqBits.
  struct Node {
    uint64_t Key = 0;
    uint32_t Id = None;
    uint32_t Group = None;
    uint32_t Child = None;
    uint32_t Sibling = None;
  };
  static constexpr unsigned KeySeqBits = 39;
  static constexpr unsigned KeyScoreBits = 64 - KeySeqBits;
  static constexpr uint64_t KeySeqMask = (uint64_t(1) << KeySeqBits) - 1;
  static constexpr int64_t KeyBias = int64_t(1) << (KeyScoreBits - 1);
  static_assert(sizeof(Node) == 24, "heap node outgrew its 24-byte slot");

  /// A side-heap element: a node pushed since the last pass, under its
  /// push-time key (push score bits, the node's sequence bits).
  struct Fresh {
    uint64_t Key;
    uint32_t NodeId;
  };

  /// A group-heap element: a group with settled members, the root of
  /// their pairing heap, and the group's full key (the root's key plus
  /// the run term). Groups[Group].HeapPos points back at it.
  struct GroupSlot {
    uint64_t Key;
    uint32_t Group;
    uint32_t Root;
  };

  /// Run-constant data shared by all candidates of one executed run.
  struct Group {
    /// The run's new-branch list, filtered in place at rescores (see the
    /// file comment for why that equals filtering per candidate).
    std::vector<uint32_t> Branches;
    uint64_t PathHash = 0;
    /// vBr epoch the list was last filtered at. 32 bits suffice: the epoch
    /// advances once per newly covered outcome, and outcome keys are 32-bit
    /// (asserted in makeRun and reterm).
    uint32_t FilterEpoch = 0;
    /// A half-integer, so a float holds it exactly (asserted in makeRun).
    float AvgStack = 0;
    uint32_t NumParentsBase = 0;
    /// Pins: one per queued member, settled or fresh, plus the run's own
    /// until releaseRun. The slot is recycled when it reaches zero.
    uint32_t Refs = 0;
    /// Twice the run term (an integer: the run term is a half-integer),
    /// current while the group is in the group heap.
    int32_t TwiceRunTerm = 0;
    /// The group's slot in GroupHeap; None when it has no settled
    /// members, which is exactly when it is outside the heap and the path
    /// index.
    uint32_t HeapPos = None;
    /// Neighbours in the path index's bucket chain; PathPrev is None at
    /// the head. Linked both ways so a group leaves its chain in O(1):
    /// every group on a hot path shares one bucket.
    uint32_t PathPrev = None;
    uint32_t PathNext = None;
  };
  static_assert(sizeof(Group) == 64, "group outgrew its 64-byte slot");

  uint32_t allocRecord();
  void freeRecord(uint32_t Id);
  void maybeRebase(uint32_t Id, std::string_view Input);
  uint32_t allocGroup();
  void maybeFreeGroup(uint32_t GroupId);
  void unlinkGroup(uint32_t Id);
  void materialize(uint32_t Id, std::string &Out) const;
  void maybeCompactArena();

  /// Whether the next pop comes from the side heap rather than the
  /// group heap.
  bool freshOnTop() const;

  /// \p Key with \p TwiceRunTerm added to its score bits.
  static uint64_t fullKey(uint64_t Key, int32_t TwiceRunTerm);

  // Pairing heaps of group members, linked through the node pool.
  uint32_t meld(uint32_t A, uint32_t B);
  uint32_t mergePairs(uint32_t First);

  // The indexed group heap.
  uint64_t slotKey(const GroupSlot &S) const;
  void placeSlot(size_t Pos, GroupSlot S);
  void siftUp(size_t Pos);
  void siftDown(size_t Pos);
  /// Appends a slot for \p GroupId with \p Root (key unset, heap order
  /// not restored).
  void appendSlot(uint32_t GroupId, uint32_t Root);
  /// Adds node \p NodeId to the settled members of \p GroupId;
  /// appendSlot for a group outside the heap.
  void settle(uint32_t GroupId, uint32_t NodeId);

  // The path index.
  uint32_t &pathBucket(uint64_t PathHash);
  void linkPath(uint32_t GroupId);
  void unlinkPath(uint32_t GroupId);
  void rebuildPathIndex();

  /// Filters \p G's list against \p VBr when it is stale and recomputes
  /// its run term.
  void reterm(Group &G, const BranchCoverageMap &VBr,
              const PathCountMap &PathCounts);
  void fullPass(const BranchCoverageMap &VBr, const PathCountMap &PathCounts);
  void incrementalPass(const BranchCoverageMap &VBr,
                       const PathCountMap &PathCounts);
  void trim();

  const size_t MaxQueue;
  const HeuristicOptions Heur;

  std::vector<Record> Records;
  /// Head of the intrusive free list threaded through freed records'
  /// Parent fields — no side vector of free ids.
  uint32_t FreeHead = None;
  /// Node pool (one node per queued candidate) and its free list.
  std::vector<Node> Nodes;
  uint32_t FreeNode = None;
  size_t QueueLen = 0;
  /// Max-heap of the nodes pushed since the last pass.
  std::vector<Fresh> FreshHeap;
  /// Max-heap of the groups with settled members.
  std::vector<GroupSlot> GroupHeap;
  /// The path index: a chained hash table of the groups in the group
  /// heap, bucketed by PathHash and doubly linked through PathPrev and
  /// PathNext. Holds at least one bucket per indexed group.
  std::vector<uint32_t> PathBuckets;
  /// Paths reported by pathCountMoved since the last pass.
  std::vector<uint64_t> DirtyPaths;
  bool PathsDecayed = false;
  /// vBr epoch at the last pass.
  uint64_t PassEpoch = 0;
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
