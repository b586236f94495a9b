//===- core/CandidateStore.cpp - Compact candidate queue store ------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/CandidateStore.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>

using namespace pfuzz;

namespace {

/// Magnitude bound of each score part; see CandidateStore::Entry.
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
  Rescores += Other.Rescores;
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
    : MaxQueue(MaxQueue), Heur(Heur) {}

CandidateStore::~CandidateStore() = default;

//===----------------------------------------------------------------------===//
// Record and group slabs
//===----------------------------------------------------------------------===//

uint32_t CandidateStore::allocRecord() {
  if (FreeHead != None) {
    uint32_t Id = FreeHead;
    FreeHead = Records[Id].Parent; // the intrusive free-list link
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
  G.Members = 0;
  G.RunPinned = false;
  ++LiveGroups;
  return Id;
}

void CandidateStore::maybeFreeGroup(uint32_t GroupId) {
  Group &G = Groups[GroupId];
  if (G.RunPinned || G.Members > 0)
    return;
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
  --Groups[GroupId].Members;
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
  G.FilterEpoch = FilterEpoch;
  G.PathHash = PathHash;
  G.AvgStack = AvgStack;
  G.NumParentsBase = NumParentsBase;
  G.RunPinned = true;
  return Id;
}

void CandidateStore::releaseRun(uint32_t Run) {
  if (Run == None)
    return;
  Groups[Run].RunPinned = false;
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
  ++Groups[Run].Members;
  R.Refs = 1; // the queue entry's pin; pop transfers it to the caller
  R.ReplacementLen = ReplacementLen;
  R.ParentDelta = static_cast<uint8_t>(ParentDelta);
  // The Entry key precondition (see the header).
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
  // The caller trims past MaxQueue, so the heap never outgrows
  // MaxQueue + 1 entries — clamp growth there instead of letting the
  // final doubling overshoot the cap by nearly 2x.
  if (Entries.size() == Entries.capacity())
    Entries.reserve(std::min(MaxQueue + 1, Entries.capacity() +
                                               Entries.capacity() / 4 + 64));
  Entries.push_back(Entry{
      static_cast<uint64_t>(TwiceScore + KeyBias) << KeySeqBits | SeqBits,
      static_cast<int32_t>(Base), Id, Run});
  std::push_heap(Entries.begin(), Entries.end(), KeyLess());
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

CandidateStore::Popped CandidateStore::pop(std::string &InputOut) {
  std::pop_heap(Entries.begin(), Entries.end(), KeyLess());
  Entry E = Entries.back();
  Entries.pop_back();
  Record &R = Records[E.Id];
  Group &G = Groups[R.Group];
  Popped P;
  P.Id = E.Id;
  int64_t TwiceScore = static_cast<int64_t>(E.Key >> KeySeqBits) - KeyBias;
  P.Score = static_cast<double>(TwiceScore) / 2;
  P.InputHash = R.InputHash;
  P.NumParents = G.NumParentsBase + R.ParentDelta;
  P.ReplacementLen = R.ReplacementLen;
  P.NewBranchCount = static_cast<uint32_t>(G.Branches.size());
  // The popped input is about to execute; its branch list has served its
  // purpose, so leave the group now and let it die with its last queued
  // member instead of with this record's whole ancestry.
  unlinkGroup(E.Id);
  materialize(E.Id, InputOut);
  return P; // the queue pin transfers to the caller — no Refs change
}

size_t CandidateStore::queueSize() const { return Entries.size(); }

void CandidateStore::exportTop(Exported &Out) const {
  assert(!Entries.empty() && "export from an empty queue");
  const Entry &Top = Entries.front(); // the heap's maximum: the next pop
  const Record &R = Records[Top.Id];
  const Group &G = Groups[R.Group];
  materialize(Top.Id, Out.Bytes);
  Out.Hash = R.InputHash;
  Out.Branches = G.Branches;
  Out.AvgStack = G.AvgStack;
  Out.PathHash = G.PathHash;
  Out.NumParents = G.NumParentsBase + R.ParentDelta;
  Out.ReplacementLen = R.ReplacementLen;
}

//===----------------------------------------------------------------------===//
// Rescore
//===----------------------------------------------------------------------===//

bool CandidateStore::rescore(const BranchCoverageMap &VBr,
                             const PathCountMap &PathCounts) {
  auto Begin = std::chrono::steady_clock::now();
  ++Stats.Rescores;
  bool Trimmed = false;
  uint64_t Now = VBr.epoch();
  // Step 1: every live group — exactly the groups some queued entry
  // references — filters its list in place (see the header for why that
  // equals filtering per candidate) and computes its run term, one
  // path-count lookup per group instead of per entry.
  for (size_t I = 0, N = Groups.size(); I != N; ++I) {
    Group &G = Groups[I];
    if (G.Members == 0)
      continue;
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
    double Term = runTerm(static_cast<uint32_t>(G.Branches.size()),
                          G.AvgStack, G.NumParentsBase,
                          PathCount ? *PathCount : 0, Heur);
    assert(Term > -MaxExactTerm && Term < MaxExactTerm &&
           "run term outside the packed key's range");
    G.TwiceRunTerm = static_cast<int32_t>(2 * Term);
  }
  // Step 2: stream over the heap, rewriting each key's score bits and
  // keeping its sequence bits. Both terms are exact, so the key holds
  // the exact score.
  const Group *Gs = Groups.data();
  for (Entry &E : Entries) {
    int64_t Biased = 2 * int64_t(E.Base) + Gs[E.Group].TwiceRunTerm + KeyBias;
    E.Key = static_cast<uint64_t>(Biased) << KeySeqBits | (E.Key & KeySeqMask);
  }
  if (Entries.size() > MaxQueue) {
    TELEMETRY_SPAN("trim");
    // Step 3: keep the first MaxQueue / 2 entries in pop order. Keys are
    // unique, so nth_element selects exactly that set. The dropped ids
    // release their suffix bytes and (via the pin cascade) any ancestry
    // nothing else holds.
    std::nth_element(Entries.begin(), Entries.begin() + MaxQueue / 2,
                     Entries.end(), KeyGreater());
    for (size_t I = MaxQueue / 2, N = Entries.size(); I < N; ++I)
      release(Entries[I].Id);
    Stats.TrimmedCandidates += Entries.size() - MaxQueue / 2;
    ++Stats.Trims;
    Entries.resize(MaxQueue / 2);
    Trimmed = true;
    maybeCompactArena();
  }
  std::make_heap(Entries.begin(), Entries.end(), KeyLess());
  Stats.RescoreNanos += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Begin)
          .count());
  samplePeaks();
  return Trimmed;
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
         Entries.capacity() * sizeof(Entry) + Arena.capacity() +
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
