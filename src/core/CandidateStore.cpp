//===- core/CandidateStore.cpp - Compact candidate queue store ------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CandidateStore.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstring>

using namespace pfuzz;

namespace {

/// Magnitude bound of each score part; see CandidateStore::Node.
[[maybe_unused]] constexpr int64_t MaxExactTerm = int64_t(1) << 22;

/// Heap order on the packed key: the max-heap's top is the next pop.
struct KeyLess {
  template <typename T> bool operator()(const T &A, const T &B) const {
    return A.Key < B.Key;
  }
};
struct KeyGreater {
  template <typename T> bool operator()(const T &A, const T &B) const {
    return A.Key > B.Key;
  }
};

} // namespace

void QueueStats::accumulate(const QueueStats &Other) {
  Pushes += Other.Pushes;
  DedupProbes += Other.DedupProbes;
  DedupHits += Other.DedupHits;
  Requeues += Other.Requeues;
  Rescores += Other.Rescores;
  FullRescores += Other.FullRescores;
  DirtyGroups += Other.DirtyGroups;
  RescoreNanos += Other.RescoreNanos;
  GroupsFiltered += Other.GroupsFiltered;
  Trims += Other.Trims;
  TrimmedCandidates += Other.TrimmedCandidates;
  Compactions += Other.Compactions;
  ArenaBytesReclaimed += Other.ArenaBytesReclaimed;
  PathDecays += Other.PathDecays;
  PeakBytes = std::max(PeakBytes, Other.PeakBytes);
  PeakCandidates = std::max(PeakCandidates, Other.PeakCandidates);
  PeakArenaBytes = std::max(PeakArenaBytes, Other.PeakArenaBytes);
  PeakGroups = std::max(PeakGroups, Other.PeakGroups);
  PeakPathTable = std::max(PeakPathTable, Other.PeakPathTable);
}

CandidateStore::CandidateStore(size_t MaxQueue, const HeuristicOptions &Heur)
    : MaxQueue(MaxQueue), Heur(Heur) {
  assert(MaxQueue >= 2 && "a trim must keep at least one candidate");
}

CandidateStore::~CandidateStore() = default;

//===----------------------------------------------------------------------===//
// Record and group slabs
//===----------------------------------------------------------------------===//

uint32_t CandidateStore::allocRecord() {
  if (FreeHead != None) {
    uint32_t Id = FreeHead;
    FreeHead = Records[Id].Parent; // the intrusive free-list link
    // Freed slots are scattered over the slab: fetch the next pop's now,
    // while this one is filled.
    if (FreeHead != None)
      __builtin_prefetch(&Records[FreeHead], 1);
    Records[Id] = Record();
    return Id;
  }
  // Slabs at this size grow by 1.25x, not the libstdc++ 2x: the record
  // slab is the store's largest block and a doubling overshoot at
  // 100k-candidate scale wastes megabytes against a 25% one.
  if (Records.size() == Records.capacity())
    Records.reserve(Records.capacity() + Records.capacity() / 4 + 64);
  Records.emplace_back();
  return static_cast<uint32_t>(Records.size()) - 1;
}

void CandidateStore::freeRecord(uint32_t Id) {
  Record &R = Records[Id];
  ArenaGarbage += R.SuffixLen;
  unlinkGroup(Id);
  R.Refs = 0;
  R.SuffixLen = 0;   // compaction walks Refs>0 only, but keep it inert
  R.Parent = FreeHead; // freed slots chain through their Parent field
  FreeHead = Id;
}

uint32_t CandidateStore::allocGroup() {
  uint32_t Id;
  if (!FreeGroups.empty()) {
    Id = FreeGroups.back();
    FreeGroups.pop_back();
  } else {
    if (Groups.size() == Groups.capacity())
      Groups.reserve(Groups.capacity() + Groups.capacity() / 4 + 16);
    Groups.emplace_back();
    Id = static_cast<uint32_t>(Groups.size()) - 1;
  }
  Group &G = Groups[Id];
  G.Branches.clear(); // keeps capacity: a recycled group copies its run's
                      // list into an already-sized buffer
  G.FilterEpoch = 0;
  G.PathHash = 0;
  G.AvgStack = 0;
  G.NumParentsBase = 0;
  G.Refs = 0;
  G.TwiceRunTerm = 0;
  G.HeapPos = G.PathPrev = G.PathNext = None;
  ++LiveGroups;
  return Id;
}

void CandidateStore::maybeFreeGroup(uint32_t GroupId) {
  Group &G = Groups[GroupId];
  if (G.Refs > 0)
    return;
  assert(G.HeapPos == None && "a group without members has no settled nodes");
  // Recycled slots keep small buffers (steady-state lists are a handful
  // of branches, so reuse skips the realloc) but release outliers: early
  // runs discover dozens of branches at once, and without the cap every
  // slot ratchets up to the largest list it ever held.
  if (G.Branches.capacity() > 16) {
    GroupListBytes -= G.Branches.capacity() * sizeof(uint32_t);
    std::vector<uint32_t>().swap(G.Branches);
  } else {
    G.Branches.clear();
  }
  FreeGroups.push_back(GroupId);
  --LiveGroups;
}

void CandidateStore::unlinkGroup(uint32_t Id) {
  Record &R = Records[Id];
  if (R.Group == None)
    return;
  uint32_t GroupId = R.Group;
  R.Group = None;
  --Groups[GroupId].Refs;
  maybeFreeGroup(GroupId);
}

//===----------------------------------------------------------------------===//
// Lineage
//===----------------------------------------------------------------------===//

uint32_t CandidateStore::internRoot(std::string_view Input, uint64_t Hash) {
  uint32_t Id = allocRecord();
  Record &R = Records[Id];
  R.InputHash = Hash;
  R.Parent = None;
  R.SpliceAt = 0;
  R.SuffixOfs = Arena.append(Input);
  R.SuffixLen = static_cast<uint32_t>(Input.size());
  R.Refs = 1;
  return Id;
}

uint32_t CandidateStore::internChild(uint32_t Parent, size_t SpliceAt,
                                     std::string_view ParentInput,
                                     std::string_view Suffix, uint64_t Hash) {
  if (Parent != None)
    maybeRebase(Parent, ParentInput);
  uint32_t Id = allocRecord();
  Record &R = Records[Id];
  R.InputHash = Hash;
  R.Parent = Parent;
  if (Parent != None) {
    ++Records[Parent].Refs;
    R.Depth = static_cast<uint8_t>(Records[Parent].Depth + 1);
  }
  R.SpliceAt = static_cast<uint32_t>(SpliceAt);
  R.SuffixOfs = Arena.append(Suffix);
  R.SuffixLen = static_cast<uint32_t>(Suffix.size());
  R.Refs = 1;
  return Id;
}

void CandidateStore::maybeRebase(uint32_t Id, std::string_view Input) {
  // About to become a parent at the chain-depth cap: rewrite the record
  // as a root holding its full bytes. Purely a storage change — the
  // record's materialized bytes, hash, input length (SpliceAt+SuffixLen)
  // and group are all unchanged, and records gaining children are never
  // queue members — so scores and pop order cannot move. The lineage pin
  // on the old parent drops, releasing ancestry nothing else holds.
  Record &R = Records[Id];
  if (R.Depth < MaxChainDepth)
    return;
  assert(Input.size() == R.SpliceAt + R.SuffixLen &&
         "rebase input must be the record's materialized bytes");
  ArenaGarbage += R.SuffixLen;
  uint32_t OldParent = R.Parent;
  R.SuffixOfs = Arena.append(Input);
  R.SuffixLen = static_cast<uint32_t>(Input.size());
  R.SpliceAt = 0;
  R.Parent = None;
  R.Depth = 0;
  release(OldParent);
}

void CandidateStore::release(uint32_t Id) {
  // The cascade is what keeps chains from leaking: freeing a record drops
  // its parent pin, which may free the parent, and so on up to the root.
  // A record queued anywhere below keeps its whole ancestry alive.
  while (Id != None) {
    Record &R = Records[Id];
    if (--R.Refs > 0)
      return;
    uint32_t Parent = R.Parent;
    freeRecord(Id);
    Id = Parent;
  }
}

//===----------------------------------------------------------------------===//
// Run lifecycle
//===----------------------------------------------------------------------===//

uint32_t CandidateStore::makeRun(const std::vector<uint32_t> &NewBranches,
                                 uint64_t FilterEpoch, double AvgStack,
                                 uint64_t PathHash, uint32_t NumParentsBase) {
  uint32_t Id = allocGroup();
  Group &G = Groups[Id];
  GroupListBytes -= G.Branches.capacity() * sizeof(uint32_t);
  G.Branches = NewBranches;
  GroupListBytes += G.Branches.capacity() * sizeof(uint32_t);
  assert(FilterEpoch <= UINT32_MAX && "vBr epoch outgrew Group::FilterEpoch");
  G.FilterEpoch = static_cast<uint32_t>(FilterEpoch);
  G.PathHash = PathHash;
  G.AvgStack = static_cast<float>(AvgStack);
  assert(G.AvgStack == AvgStack && "stack depth is not an exact float");
  G.NumParentsBase = NumParentsBase;
  G.Refs = 1; // the run pin
  return Id;
}

void CandidateStore::releaseRun(uint32_t Run) {
  if (Run == None)
    return;
  assert(Groups[Run].Refs > 0 && "run released twice");
  --Groups[Run].Refs;
  maybeFreeGroup(Run);
}

//===----------------------------------------------------------------------===//
// Queue operations
//===----------------------------------------------------------------------===//

void CandidateStore::push(uint32_t Run, uint32_t Parent,
                          std::string_view ParentInput, size_t SpliceAt,
                          std::string_view Suffix, uint64_t Hash,
                          uint32_t ReplacementLen, uint32_t ParentDelta,
                          double Score) {
  ++Stats.Pushes;
  if (Parent != None)
    maybeRebase(Parent, ParentInput);
  // Dead rebased roots and released ancestry can pile up whole-input
  // blocks in the arena between trims, so garbage collection cannot
  // wait for trim pressure alone; the threshold check makes the
  // periodic call nearly free.
  if ((PushTick & 255) == 0)
    maybeCompactArena();
  uint32_t Id = allocRecord();
  Record &R = Records[Id];
  R.InputHash = Hash;
  R.Parent = Parent;
  if (Parent != None) {
    ++Records[Parent].Refs;
    R.Depth = static_cast<uint8_t>(Records[Parent].Depth + 1);
  }
  R.SpliceAt = static_cast<uint32_t>(SpliceAt);
  R.SuffixOfs = Arena.append(Suffix);
  R.SuffixLen = static_cast<uint32_t>(Suffix.size());
  R.Group = Run;
  ++Groups[Run].Refs;
  R.Refs = 1; // the queue entry's pin; pop transfers it to the caller
  R.ReplacementLen = ReplacementLen;
  R.ParentDelta = static_cast<uint8_t>(ParentDelta);
  // The Node key precondition (see the header).
  int64_t Base = candidateTerm(R.SpliceAt + R.SuffixLen, ReplacementLen,
                               ParentDelta, Heur);
  assert(Base > -MaxExactTerm && Base < MaxExactTerm &&
         "candidate term outside the packed key's range");
  int64_t TwiceScore = static_cast<int64_t>(2 * Score);
  assert(static_cast<double>(TwiceScore) == 2 * Score &&
         TwiceScore > -KeyBias && TwiceScore < KeyBias &&
         "push score is not a half-integer within the packed key's range");
  assert(NextSeq <= KeySeqMask && "push sequence number overflows the key");
  uint64_t SeqBits = KeySeqMask - NextSeq++;
  uint32_t N = FreeNode;
  if (N != None) {
    FreeNode = Nodes[N].Sibling;
    if (FreeNode != None)
      __builtin_prefetch(&Nodes[FreeNode], 1); // as in allocRecord
  } else {
    // The caller trims past MaxQueue, so the pool never outgrows
    // MaxQueue + 1 nodes — clamp growth there instead of letting the
    // final doubling overshoot the cap by nearly 2x.
    if (Nodes.size() == Nodes.capacity())
      Nodes.reserve(std::min(MaxQueue + 1,
                             Nodes.capacity() + Nodes.capacity() / 4 + 64));
    N = static_cast<uint32_t>(Nodes.size());
    Nodes.emplace_back();
  }
  Nodes[N] = Node{static_cast<uint64_t>(2 * Base + KeyBias) << KeySeqBits |
                      SeqBits,
                  Id, Run, None, None};
  FreshHeap.push_back(Fresh{
      static_cast<uint64_t>(TwiceScore + KeyBias) << KeySeqBits | SeqBits, N});
  std::push_heap(FreshHeap.begin(), FreshHeap.end(), KeyLess());
  ++QueueLen;
  if ((++PushTick & 1023) == 0)
    samplePeaks();
}

void CandidateStore::materialize(uint32_t Id, std::string &Out) const {
  const Record &Top = Records[Id];
  size_t Take = Top.SpliceAt + Top.SuffixLen;
  Out.resize(Take);
  // Walk up the chain copying each record's suffix segment into its
  // [SpliceAt, SpliceAt + SuffixLen) window, clipped to the bytes the
  // descendants have not already overridden (Take). Every visited record
  // satisfies Take <= SpliceAt + SuffixLen — a child's splice point never
  // exceeds its parent's length — so the loop terminates with Take == 0
  // at or before the chain root.
  uint32_t Cur = Id;
  while (Take > 0) {
    const Record &R = Records[Cur];
    if (R.SpliceAt < Take) {
      size_t Copy = std::min<size_t>(R.SuffixLen, Take - R.SpliceAt);
      std::memcpy(&Out[R.SpliceAt], Arena.data() + R.SuffixOfs, Copy);
      Take = R.SpliceAt;
    }
    if (R.Parent == None)
      break;
    Cur = R.Parent;
  }
}

bool CandidateStore::freshOnTop() const {
  return !FreshHeap.empty() &&
         (GroupHeap.empty() || FreshHeap.front().Key > GroupHeap.front().Key);
}

CandidateStore::Popped CandidateStore::pop(std::string &InputOut) {
  assert(QueueLen > 0 && "pop from an empty queue");
  uint32_t N;
  uint64_t Key;
  if (freshOnTop()) {
    std::pop_heap(FreshHeap.begin(), FreshHeap.end(), KeyLess());
    N = FreshHeap.back().NodeId;
    Key = FreshHeap.back().Key;
    FreshHeap.pop_back();
  } else {
    GroupSlot &Top = GroupHeap.front();
    Key = Top.Key;
    N = Top.Root;
    Top.Root = mergePairs(Nodes[N].Child);
    if (Top.Root != None) {
      Top.Key = slotKey(Top);
      siftDown(0);
    } else {
      // The group's last settled member: the group leaves the heap and
      // the path index (fresh members bring it back at the next pass).
      unlinkPath(Top.Group);
      Groups[Top.Group].HeapPos = None;
      GroupSlot Last = GroupHeap.back();
      GroupHeap.pop_back();
      if (!GroupHeap.empty()) {
        placeSlot(0, Last);
        siftDown(0);
      }
    }
  }
  uint32_t Id = Nodes[N].Id;
  Nodes[N].Id = None;
  Nodes[N].Sibling = FreeNode;
  FreeNode = N;
  --QueueLen;
  Record &R = Records[Id];
  Group &G = Groups[R.Group];
  Popped P;
  P.Id = Id;
  int64_t TwiceScore = static_cast<int64_t>(Key >> KeySeqBits) - KeyBias;
  P.Score = static_cast<double>(TwiceScore) / 2;
  P.InputHash = R.InputHash;
  P.NumParents = G.NumParentsBase + R.ParentDelta;
  P.ReplacementLen = R.ReplacementLen;
  P.NewBranchCount = static_cast<uint32_t>(G.Branches.size());
  // The popped input is about to execute; its branch list has served its
  // purpose, so leave the group now and let it die with its last queued
  // member instead of with this record's whole ancestry.
  unlinkGroup(Id);
  materialize(Id, InputOut);
  return P; // the queue pin transfers to the caller — no Refs change
}

void CandidateStore::exportTop(Exported &Out) const {
  assert(QueueLen > 0 && "export from an empty queue");
  uint32_t N =
      freshOnTop() ? FreshHeap.front().NodeId : GroupHeap.front().Root;
  const Record &R = Records[Nodes[N].Id];
  const Group &G = Groups[R.Group];
  materialize(Nodes[N].Id, Out.Bytes);
  Out.Hash = R.InputHash;
  Out.Branches = G.Branches;
  Out.AvgStack = G.AvgStack;
  Out.PathHash = G.PathHash;
  Out.NumParents = G.NumParentsBase + R.ParentDelta;
  Out.ReplacementLen = R.ReplacementLen;
}

//===----------------------------------------------------------------------===//
// Member heaps and the group heap
//===----------------------------------------------------------------------===//

uint64_t CandidateStore::fullKey(uint64_t Key, int32_t TwiceRunTerm) {
  // The sum stays inside the score bits (see Node), so the unsigned wrap
  // of a negative term is exact.
  return Key + (static_cast<uint64_t>(static_cast<int64_t>(TwiceRunTerm))
                << KeySeqBits);
}

uint32_t CandidateStore::meld(uint32_t A, uint32_t B) {
  if (A == None)
    return B;
  if (B == None)
    return A;
  if (Nodes[A].Key < Nodes[B].Key)
    std::swap(A, B);
  Nodes[B].Sibling = Nodes[A].Child;
  Nodes[A].Child = B;
  return A;
}

uint32_t CandidateStore::mergePairs(uint32_t First) {
  // The standard two-pass pairing: meld the children pairwise left to
  // right, threading the results onto a reversed list, then meld that
  // list into one heap.
  uint32_t Reversed = None;
  while (First != None) {
    uint32_t A = First, B = Nodes[A].Sibling;
    First = B == None ? None : Nodes[B].Sibling;
    Nodes[A].Sibling = None;
    if (B != None)
      Nodes[B].Sibling = None;
    uint32_t M = meld(A, B);
    Nodes[M].Sibling = Reversed;
    Reversed = M;
  }
  uint32_t Root = None;
  while (Reversed != None) {
    uint32_t Next = Nodes[Reversed].Sibling;
    Nodes[Reversed].Sibling = None;
    Root = meld(Root, Reversed);
    Reversed = Next;
  }
  return Root;
}

uint64_t CandidateStore::slotKey(const GroupSlot &S) const {
  return fullKey(Nodes[S.Root].Key, Groups[S.Group].TwiceRunTerm);
}

void CandidateStore::placeSlot(size_t Pos, GroupSlot S) {
  GroupHeap[Pos] = S;
  Groups[S.Group].HeapPos = static_cast<uint32_t>(Pos);
}

void CandidateStore::siftUp(size_t Pos) {
  GroupSlot S = GroupHeap[Pos];
  while (Pos > 0) {
    size_t Parent = (Pos - 1) / 2;
    if (GroupHeap[Parent].Key >= S.Key)
      break;
    placeSlot(Pos, GroupHeap[Parent]);
    Pos = Parent;
  }
  placeSlot(Pos, S);
}

void CandidateStore::siftDown(size_t Pos) {
  GroupSlot S = GroupHeap[Pos];
  size_t N = GroupHeap.size();
  for (size_t Child; (Child = 2 * Pos + 1) < N; Pos = Child) {
    if (Child + 1 < N && GroupHeap[Child + 1].Key > GroupHeap[Child].Key)
      ++Child;
    if (GroupHeap[Child].Key <= S.Key)
      break;
    placeSlot(Pos, GroupHeap[Child]);
  }
  placeSlot(Pos, S);
}

void CandidateStore::appendSlot(uint32_t GroupId, uint32_t Root) {
  // Plain doubling, unlike the slabs: 1.25x steps on this array left
  // about 1.5 MB more peak RSS on a 400k-execution json campaign, in
  // blocks freed by the growth itself.
  GroupHeap.push_back(GroupSlot{0, GroupId, Root});
  Groups[GroupId].HeapPos = static_cast<uint32_t>(GroupHeap.size() - 1);
}

void CandidateStore::settle(uint32_t GroupId, uint32_t NodeId) {
  uint32_t Pos = Groups[GroupId].HeapPos;
  if (Pos == None)
    appendSlot(GroupId, NodeId);
  else
    GroupHeap[Pos].Root = meld(GroupHeap[Pos].Root, NodeId);
}

//===----------------------------------------------------------------------===//
// Path index
//===----------------------------------------------------------------------===//

uint32_t &CandidateStore::pathBucket(uint64_t PathHash) {
  // Fibonacci hashing into a power-of-two bucket array.
  size_t Slot = static_cast<size_t>((PathHash * 0x9E3779B97F4A7C15ULL) >> 32);
  return PathBuckets[Slot & (PathBuckets.size() - 1)];
}

void CandidateStore::linkPath(uint32_t GroupId) {
  Group &G = Groups[GroupId];
  uint32_t &Head = pathBucket(G.PathHash);
  if (Head != None)
    Groups[Head].PathPrev = GroupId;
  G.PathPrev = None;
  G.PathNext = Head;
  Head = GroupId;
}

void CandidateStore::unlinkPath(uint32_t GroupId) {
  // Buckets hold one group on average, but every group on one parse path
  // shares a bucket, and a hot path gathers thousands: a walk from the
  // head cost json-deep about 150 links per unlink. The back link makes
  // it O(1).
  Group &G = Groups[GroupId];
  assert((G.PathPrev == None ? pathBucket(G.PathHash)
                             : Groups[G.PathPrev].PathNext) == GroupId &&
         (G.PathNext == None || Groups[G.PathNext].PathPrev == GroupId) &&
         "path index links out of sync");
  if (G.PathPrev == None)
    pathBucket(G.PathHash) = G.PathNext;
  else
    Groups[G.PathPrev].PathNext = G.PathNext;
  if (G.PathNext != None)
    Groups[G.PathNext].PathPrev = G.PathPrev;
  G.PathPrev = G.PathNext = None;
}

void CandidateStore::rebuildPathIndex() {
  PathBuckets.assign(std::bit_ceil(std::max<size_t>(16, GroupHeap.size())),
                     None);
  for (const GroupSlot &S : GroupHeap)
    linkPath(S.Group);
}

//===----------------------------------------------------------------------===//
// Rescore
//===----------------------------------------------------------------------===//

void CandidateStore::reterm(Group &G, const BranchCoverageMap &VBr,
                            const PathCountMap &PathCounts) {
  assert(VBr.epoch() <= UINT32_MAX && "vBr epoch outgrew Group::FilterEpoch");
  uint32_t Now = static_cast<uint32_t>(VBr.epoch());
  if (G.FilterEpoch != Now) {
    if (!G.Branches.empty()) {
      size_t Kept = 0;
      for (uint32_t B : G.Branches)
        if (!VBr.test(B))
          G.Branches[Kept++] = B;
      G.Branches.resize(Kept);
      ++Stats.GroupsFiltered;
    }
    G.FilterEpoch = Now;
  }
  const uint32_t *PathCount = PathCounts.find(G.PathHash);
  double Term = runTerm(static_cast<uint32_t>(G.Branches.size()), G.AvgStack,
                        G.NumParentsBase, PathCount ? *PathCount : 0, Heur);
  assert(Term > -MaxExactTerm && Term < MaxExactTerm &&
         "run term outside the packed key's range");
  G.TwiceRunTerm = static_cast<int32_t>(2 * Term);
}

bool CandidateStore::rescore(const BranchCoverageMap &VBr,
                             const PathCountMap &PathCounts) {
  auto Begin = std::chrono::steady_clock::now();
  ++Stats.Rescores;
  uint64_t TrimsBefore = Stats.Trims;
  // A group's run term depends on its filtered list and its capped path
  // count alone. Unless vBr grew or the path table decayed, the terms
  // that moved are those on the reported paths; a trim ranks every
  // candidate anyway.
  if (VBr.epoch() != PassEpoch || PathsDecayed || QueueLen > MaxQueue)
    fullPass(VBr, PathCounts);
  else
    incrementalPass(VBr, PathCounts);
  PassEpoch = VBr.epoch();
  PathsDecayed = false;
  DirtyPaths.clear();
  Stats.RescoreNanos += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Begin)
          .count());
  samplePeaks();
  return Stats.Trims != TrimsBefore;
}

void CandidateStore::fullPass(const BranchCoverageMap &VBr,
                              const PathCountMap &PathCounts) {
  ++Stats.FullRescores;
  // Settle the fresh nodes; then every group with queued members has a
  // slot. Re-term them all, trim, and rebuild the group heap and the
  // path index.
  for (const Fresh &F : FreshHeap)
    settle(Nodes[F.NodeId].Group, F.NodeId);
  FreshHeap.clear();
  for (const GroupSlot &S : GroupHeap)
    reterm(Groups[S.Group], VBr, PathCounts);
  if (QueueLen > MaxQueue)
    trim();
  for (GroupSlot &S : GroupHeap)
    S.Key = slotKey(S);
  for (size_t I = GroupHeap.size() / 2; I-- > 0;)
    siftDown(I);
  rebuildPathIndex();
}

void CandidateStore::incrementalPass(const BranchCoverageMap &VBr,
                                     const PathCountMap &PathCounts) {
  // Re-term the indexed groups on the reported paths; each sifts once.
  // Their lists were filtered at PassEpoch, which is still current.
  std::sort(DirtyPaths.begin(), DirtyPaths.end());
  DirtyPaths.erase(std::unique(DirtyPaths.begin(), DirtyPaths.end()),
                   DirtyPaths.end());
  if (!PathBuckets.empty())
    for (uint64_t Path : DirtyPaths)
      for (uint32_t Id = pathBucket(Path); Id != None;
           Id = Groups[Id].PathNext) {
        Group &G = Groups[Id];
        if (G.PathHash != Path)
          continue;
        int32_t Old = G.TwiceRunTerm;
        reterm(G, VBr, PathCounts);
        ++Stats.DirtyGroups;
        GroupSlot &S = GroupHeap[G.HeapPos];
        S.Key = slotKey(S);
        if (G.TwiceRunTerm > Old)
          siftUp(G.HeapPos);
        else
          siftDown(G.HeapPos);
      }
  // Settle the fresh nodes: a group without settled members gets its
  // term and enters the heap and the index; otherwise a new best member
  // raises the group's key.
  for (const Fresh &F : FreshHeap) {
    uint32_t GroupId = Nodes[F.NodeId].Group;
    Group &G = Groups[GroupId];
    if (G.HeapPos == None) {
      reterm(G, VBr, PathCounts);
      appendSlot(GroupId, F.NodeId);
      GroupHeap.back().Key = slotKey(GroupHeap.back());
      siftUp(GroupHeap.size() - 1);
      if (GroupHeap.size() > PathBuckets.size())
        rebuildPathIndex(); // links this group too
      else
        linkPath(GroupId);
      continue;
    }
    GroupSlot &S = GroupHeap[G.HeapPos];
    uint32_t OldRoot = S.Root;
    S.Root = meld(S.Root, F.NodeId);
    if (S.Root != OldRoot) {
      S.Key = slotKey(S);
      siftUp(G.HeapPos);
    }
  }
  FreshHeap.clear();
}

void CandidateStore::trim() {
  TELEMETRY_SPAN("trim");
  // Keep the first MaxQueue / 2 candidates in pop order. Every node is
  // settled and the slots are rebuilt below, so no node index needs to
  // survive: pack the live nodes at the front of the pool under their
  // full keys and select with nth_element (keys are unique, so it
  // selects exactly that set). The dropped ids release their suffix
  // bytes and (via the pin cascade) any ancestry nothing else holds.
  size_t Live = 0;
  for (size_t I = 0, N = Nodes.size(); I != N; ++I) {
    if (Nodes[I].Id == None)
      continue;
    Node Packed = Nodes[I];
    Packed.Key = fullKey(Packed.Key, Groups[Packed.Group].TwiceRunTerm);
    Nodes[Live++] = Packed;
  }
  assert(Live == QueueLen && "node pool out of sync with the queue");
  for (const GroupSlot &S : GroupHeap)
    Groups[S.Group].HeapPos = None;
  GroupHeap.clear();
  size_t Keep = MaxQueue / 2;
  std::nth_element(Nodes.begin(), Nodes.begin() + Keep, Nodes.begin() + Live,
                   KeyGreater());
  for (size_t I = Keep; I != Live; ++I)
    release(Nodes[I].Id);
  Nodes.resize(Keep);
  FreeNode = None;
  for (uint32_t I = 0; I != Keep; ++I) {
    Node &N = Nodes[I];
    N.Key = fullKey(N.Key, -Groups[N.Group].TwiceRunTerm);
    N.Child = N.Sibling = None;
    settle(N.Group, I);
  }
  Stats.TrimmedCandidates += QueueLen - Keep;
  ++Stats.Trims;
  QueueLen = Keep;
  maybeCompactArena();
}

//===----------------------------------------------------------------------===//
// Arena compaction
//===----------------------------------------------------------------------===//

void CandidateStore::maybeCompactArena() {
  // Rebuild when over half the arena is dead suffix bytes (and enough of
  // them to be worth a pass). Live records are exactly those with pins;
  // their offsets are patched to the fresh arena.
  if (ArenaGarbage <= 4096 || ArenaGarbage <= Arena.size() / 2)
    return;
  ByteArena Fresh;
  Fresh.reserve(Arena.size() - ArenaGarbage);
  for (Record &R : Records) {
    if (R.Refs == 0)
      continue;
    R.SuffixOfs = Fresh.append(Arena.view(R.SuffixOfs, R.SuffixLen));
  }
  Stats.ArenaBytesReclaimed += Arena.size() - Fresh.size();
  ++Stats.Compactions;
  Arena.swap(Fresh);
  ArenaGarbage = 0;
}

//===----------------------------------------------------------------------===//
// Accounting
//===----------------------------------------------------------------------===//

size_t CandidateStore::bytesInUse() const {
#ifndef NDEBUG
  size_t Walked = 0;
  for (const Group &G : Groups)
    Walked += G.Branches.capacity() * sizeof(uint32_t);
  assert(Walked == GroupListBytes && "group-list byte total out of sync");
#endif
  return Records.capacity() * sizeof(Record) +
         Nodes.capacity() * sizeof(Node) +
         FreshHeap.capacity() * sizeof(Fresh) +
         GroupHeap.capacity() * sizeof(GroupSlot) +
         PathBuckets.capacity() * sizeof(uint32_t) +
         DirtyPaths.capacity() * sizeof(uint64_t) + Arena.capacity() +
         Groups.capacity() * sizeof(Group) +
         FreeGroups.capacity() * sizeof(uint32_t) + GroupListBytes;
}

void CandidateStore::samplePeaks() {
  Stats.PeakBytes =
      std::max<uint64_t>(Stats.PeakBytes, static_cast<uint64_t>(bytesInUse()));
  Stats.PeakCandidates = std::max<uint64_t>(Stats.PeakCandidates, queueSize());
  Stats.PeakArenaBytes = std::max<uint64_t>(Stats.PeakArenaBytes, Arena.size());
  Stats.PeakGroups = std::max<uint64_t>(Stats.PeakGroups, LiveGroups);
}
