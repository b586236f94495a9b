//===- runtime/PrefixResumeCache.cpp - Prefix-resumption engine -----------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/PrefixResumeCache.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>

using namespace pfuzz;

//===----------------------------------------------------------------------===//
// PrefixResumeCache
//===----------------------------------------------------------------------===//

void PrefixResumeCache::countLength(size_t Len, int Delta) {
  if (Len >= LenCount.size())
    LenCount.resize(Len + 1, 0);
  uint32_t &Count = LenCount[Len];
  Count += Delta;
  // Keep the sorted distinct-length index in sync on the 0 <-> 1
  // transitions; inserts and evictions are rare next to probes, so the
  // O(distinct lengths) vector shuffle is the cheap side of the trade.
  auto It = std::lower_bound(SortedLens.begin(), SortedLens.end(),
                             static_cast<uint32_t>(Len));
  if (Delta > 0 && Count == 1)
    SortedLens.insert(It, static_cast<uint32_t>(Len));
  else if (Delta < 0 && Count == 0)
    SortedLens.erase(It);
}

size_t PrefixResumeCache::longestLengthAtMost(size_t Len) const {
  auto It = std::upper_bound(SortedLens.begin(), SortedLens.end(),
                             Len > UINT32_MAX ? UINT32_MAX
                                              : static_cast<uint32_t>(Len));
  return It == SortedLens.begin() ? 0 : *std::prev(It);
}

PrefixResumeCache::Entry *PrefixResumeCache::lookup(uint64_t Hash,
                                                    std::string_view Prefix) {
  auto It = Index.find(Hash);
  if (It == Index.end())
    return nullptr;
  Entry &E = *It->second;
  // A colliding hash whose bytes differ is a miss: resuming it would
  // continue a different parse. The byte compare keeps wrong resumes
  // structurally impossible.
  if (E.Prefix != Prefix)
    return nullptr;
  assert(E.Final && "live checkpoint without its shared final result");
  Lru.splice(Lru.begin(), Lru, It->second);
  return &E;
}

PrefixResumeCache::Entry *
PrefixResumeCache::insertSlot(uint64_t Hash, std::string_view Prefix,
                              uint64_t *EvictedOut) {
  if (Max == 0)
    return nullptr;
  auto It = Index.find(Hash);
  if (It != Index.end()) {
    // Re-mint in place (same prefix re-executed, or a collision being
    // overwritten — either way the slot is replaced wholesale).
    Entry &E = *It->second;
    if (E.Prefix.size() != Prefix.size()) {
      countLength(E.Prefix.size(), -1);
      countLength(Prefix.size(), +1);
    }
    E.Prefix.assign(Prefix);
    E.Serial = ++NextSerial;
    Lru.splice(Lru.begin(), Lru, It->second);
    return &E;
  }
  if (Index.size() >= Max) {
    // Evict the least recently used entry; recycle its node (and its
    // grown stack buffer) as the new slot. Dropping Final here releases
    // its shared result back to the engine's pool as soon as the last
    // sibling rung goes.
    auto Last = std::prev(Lru.end());
    countLength(Last->Prefix.size(), -1);
    Index.erase(Last->Hash);
    if (EvictedOut)
      ++*EvictedOut;
    Last->Stack.reset();
    Last->Final.reset();
    Last->Hash = Hash;
    Last->Prefix.assign(Prefix);
    Last->Serial = ++NextSerial;
    Lru.splice(Lru.begin(), Lru, Last);
    countLength(Prefix.size(), +1);
    Index.emplace(Hash, Lru.begin());
    return &*Lru.begin();
  }
  Lru.emplace_front();
  Entry &E = Lru.front();
  E.Hash = Hash;
  E.Prefix.assign(Prefix);
  E.Serial = ++NextSerial;
  countLength(Prefix.size(), +1);
  Index.emplace(Hash, Lru.begin());
  return &E;
}

//===----------------------------------------------------------------------===//
// PrefixResumeEngine
//===----------------------------------------------------------------------===//

PrefixResumeEngine::PrefixResumeEngine(
    std::function<int(ExecutionContext &)> RunBody, size_t CacheSize,
    size_t MinInput, uint32_t RungStride, uint32_t RungCap)
    : RunBody(std::move(RunBody)), Cache(CacheSize), MinInput(MinInput),
      RungStride(RungStride), RungCap(RungCap) {}

PrefixResumeEngine::~PrefixResumeEngine() {
  assert(Ctx == nullptr && "engine destroyed mid-execution");
}

void PrefixResumeEngine::fiberMain(void *SelfV) {
  auto *Self = static_cast<PrefixResumeEngine *>(SelfV);
  Self->ExitCode = Self->RunBody(*Self->Ctx);
}

std::shared_ptr<RunResult> PrefixResumeEngine::acquireFinalSlot() {
  // use_count() == 1 means only the pool still references the slot:
  // every checkpoint that shared it has been evicted, so its buffers are
  // free to hold a new run's final. The pool is bounded by the cache
  // capacity plus the run in flight, so the scan stays short.
  for (std::shared_ptr<RunResult> &Slot : FinalPool)
    if (Slot.use_count() == 1)
      return Slot;
  FinalPool.push_back(std::make_shared<RunResult>());
  return FinalPool.back();
}

const RunResult &PrefixResumeEngine::execute(std::string_view Input,
                                             RunResult &Scratch) {
  assert(available() && "engine constructed without fiber support");
  if (Input.size() < MinInput) {
    // Below break-even the bookkeeping costs more than it skips: run
    // plainly on this stack, no hook, no stats — indistinguishable from
    // a non-engine execution.
    new (CtxMem) ExecutionContext(Input, InstrumentationMode::Full,
                                  std::move(Scratch));
    Ctx = reinterpret_cast<ExecutionContext *>(CtxMem);
    Ctx->setExitCode(RunBody(*Ctx));
    Scratch = Ctx->takeResult();
    Ctx->~ExecutionContext();
    Ctx = nullptr;
    return Scratch;
  }
  // Rolling FNV-1a (the same fold as core's candidate hashing): all
  // prefix hashes of the input in one pass.
  size_t N = Input.size();
  PrefixHash.resize(N + 1);
  uint64_t H = 0xCBF29CE484222325ULL;
  PrefixHash[0] = H;
  for (size_t I = 0; I != N; ++I) {
    H ^= static_cast<unsigned char>(Input[I]);
    H *= 0x100000001B3ULL;
    PrefixHash[I + 1] = H;
  }
  // Longest cached prefix wins: every skipped byte is execution we do
  // not repeat. L == N re-enters a whole earlier run of this exact input
  // at its suspension point. The sorted length index jumps straight
  // between lengths that can hit.
  PrefixResumeCache::Entry *Hit = nullptr;
  ++Stats.Probes;
  for (size_t L = Cache.longestLengthAtMost(N); L != 0;
       L = Cache.longestLengthAtMost(L - 1))
    if ((Hit = Cache.lookup(PrefixHash[L], Input.substr(0, L))))
      break;
  // The context is placement-constructed at the same address every run:
  // subject frames on the fiber hold references to it, and a restored
  // frame must find the live context where the checkpointed one was.
  new (CtxMem) ExecutionContext(Input, InstrumentationMode::Full,
                                std::move(Scratch));
  Ctx = reinterpret_cast<ExecutionContext *>(CtxMem);
  Ctx->setPastEndHook(this);
  MintedThisRun = false;
  PendingMints.clear();
  ExitCode = 1;
  // Arm the ladder: the first rung sits at the first stride multiple
  // past the resume point (everything below is already covered by the
  // checkpoint we resume from or by this run's shorter siblings).
  size_t ResumeFrom = Hit ? Hit->Prefix.size() : 0;
  CurRungDepth = 0;
  RungsLeft = RungStride == 0 ? 0 : RungCap;
  if (RungsLeft > 0)
    Ctx->setRungLimit((ResumeFrom / RungStride + 1) *
                      static_cast<uint64_t>(RungStride));
  if (Hit) {
    ++Stats.Hits;
    ++Stats.HitsByRung[std::min<size_t>(Hit->RungDepth,
                                        ResumeStats::RungBuckets - 1)];
    Stats.BytesSkipped += Hit->Prefix.size();
    {
      // Times the state restoration alone (snapshot copy-in + remap),
      // not the resumed execution that follows it.
      TELEMETRY_SPAN("resume_restore");
      Ctx->restoreFrom(*Hit->Final, Hit->Mark, Input);
    }
    F.resumeAt(Hit->Stack);
  } else {
    ++Stats.ColdRuns;
    F.run(&PrefixResumeEngine::fiberMain, this);
  }
  assert(F.finished() && "subject yielded instead of returning");
  Ctx->setExitCode(ExitCode);
  const RunResult *Ret;
  if (PendingMints.empty()) {
    Scratch = Ctx->takeResult();
    Ret = &Scratch;
  } else {
    // The run minted checkpoints: its final result moves into a pooled
    // slot they all share (RunMark truncation reconstructs each rung's
    // mid-run state), and the slot's previous buffers rotate back into
    // the caller's scratch — no copy, no steady-state allocation.
    std::shared_ptr<RunResult> Slot = acquireFinalSlot();
    RunResult Final = Ctx->takeResult();
    std::swap(Final, *Slot);
    Scratch = std::move(Final);
    for (const PendingMint &P : PendingMints)
      if (P.E->Serial == P.Serial)
        P.E->Final = Slot;
    Ret = Slot.get();
  }
  Ctx->~ExecutionContext();
  Ctx = nullptr;
  return *Ret;
}

bool PrefixResumeEngine::mintCheckpoint(ExecutionContext &C, size_t PrefixLen,
                                        uint32_t RungDepth) {
  PrefixResumeCache::Entry *E = Cache.insertSlot(
      PrefixHash[PrefixLen], C.input().substr(0, PrefixLen), &Stats.Evicted);
  if (!E)
    return false;
  E->RungDepth = RungDepth;
  C.markTo(E->Mark);
  // The shared final is bound at the epilogue (the run has not finished
  // recording it yet); a null Final never becomes visible to lookups
  // because the engine is non-reentrant — no probe can run before this
  // run's epilogue stamps it or recycles the entry.
  E->Final.reset();
  E->Stack.reset();
  if (Fiber::checkpoint(E->Stack)) {
    // A later execute() restored this very point with a different input.
    // E must not be touched here — it may have been evicted since the
    // capture; the caller (peekChar) re-checks its bounds.
    return true;
  }
  PendingMints.push_back({E, E->Serial});
  if (RungDepth == 0)
    ++Stats.Minted;
  else
    ++Stats.RungsMinted;
  return false;
}

bool PrefixResumeEngine::onPastEnd(ExecutionContext &C) {
  // One past-end checkpoint per run, at the first past-end read: that is
  // where every extension of the current input diverges from it, and the
  // state there depends only on the in-bounds bytes all extensions share.
  if (MintedThisRun)
    return false;
  MintedThisRun = true;
  std::string_view In = C.input();
  if (In.empty())
    return false; // a zero-length prefix skips nothing
  return mintCheckpoint(C, In.size(), /*RungDepth=*/0);
}

bool PrefixResumeEngine::onRungReached(ExecutionContext &C, uint32_t Index) {
  // A ladder rung: the read about to observe byte Index has seen only
  // bytes below the armed limit, so Input[0..Index) is a valid resume
  // prefix for any input sharing it — exactly the shape of substitution
  // candidates spliced below their parent's EOF point.
  if (RungsLeft == 0) {
    C.setRungLimit(ExecutionContext::NoRungLimit);
    return false;
  }
  if (mintCheckpoint(C, Index, CurRungDepth + 1))
    return true;
  // Capture path only: advance the ladder. (On the restore path the
  // context and engine already carry the restoring run's state.)
  ++CurRungDepth;
  if (--RungsLeft == 0)
    C.setRungLimit(ExecutionContext::NoRungLimit);
  else
    C.setRungLimit((static_cast<uint64_t>(Index) / RungStride + 1) *
                   RungStride);
  return false;
}
