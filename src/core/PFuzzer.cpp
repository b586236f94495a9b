//===- core/PFuzzer.cpp - Parser-directed fuzzer --------------------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/PFuzzer.h"

#include "core/ShardSync.h"
#include "support/FlatHashMap.h"
#include "support/Rng.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

using namespace pfuzz;

Fuzzer::~Fuzzer() = default;

PFuzzer::PFuzzer(HeuristicOptions Heur) { Options.Heur = Heur; }

PFuzzer::PFuzzer(PFuzzerOptions Options) : Options(Options) {}

namespace {

constexpr uint64_t FnvBasis = 0xCBF29CE484222325ULL;
constexpr uint64_t FnvPrime = 0x100000001B3ULL;

/// Folds \p Bytes into the running FNV-1a state \p H. FNV-1a is strictly
/// left-to-right, so extending the hash of a prefix with the replacement
/// bytes yields exactly the hash of prefix + replacement — addInputs
/// hashes candidates without ever building their strings.
uint64_t extendHash(uint64_t H, std::string_view Bytes) {
  for (char C : Bytes) {
    H ^= static_cast<unsigned char>(C);
    H *= FnvPrime;
  }
  return H;
}

/// FNV-1a over input bytes; keys the seen-candidate dedup set and the
/// candidate store's records.
uint64_t hashInput(std::string_view Input) {
  return extendHash(FnvBasis, Input);
}

/// One pFuzzer campaign against one subject.
class Campaign {
public:
  /// \p Sync is the shard's endpoint when the sharded engine runs this
  /// campaign as one of its shards, null otherwise.
  Campaign(const Subject &S, const FuzzerOptions &Opts,
           const PFuzzerOptions &Config, ShardEndpoint *Sync = nullptr)
      : S(S), Opts(Opts), Config(Config), Heur(Config.Heur), R(Opts.Seed),
        Store(Config.MaxQueue, Config.Heur), Sync(Sync) {}

  FuzzReport run();

private:
  /// Runs \p Input into \p RR (line 7); on a valid run with new
  /// coverage performs the validInp bookkeeping and returns true (lines
  /// 27-35).
  bool runCheck(const std::string &Input, RunResult &RR);

  /// Appends an (Executions, |vBr|) sample unless it duplicates the last
  /// one — runCheck's valid-input sample and the budget-interval sampler
  /// can otherwise emit the same pair back-to-back.
  void sampleTimeline() {
    std::pair<uint64_t, uint64_t> Sample(Report.Executions, VBr.size());
    if (!Report.CoverageTimeline.empty() &&
        Report.CoverageTimeline.back() == Sample)
      return;
    Report.CoverageTimeline.push_back(Sample);
  }

  /// Heuristic-relevant facts extracted from one run. The run's
  /// new-branch list lives in the store as a group (one list shared by
  /// every candidate the run spawns); Run is its handle, released at the
  /// end of the iteration that executed it. NewBranchCount is the list
  /// size captured at creation — push-time scores use it even if a
  /// mid-iteration rescore has filtered the group's list since.
  struct RunStats {
    uint32_t Run = CandidateStore::None;
    uint32_t NewBranchCount = 0;
    double AvgStack = 0;
    uint64_t PathHash = 0;
    uint32_t LastIdx = 0;
    bool HaveIdx = false;
  };

  /// Computes coverage/stack/path statistics of \p RR per Section 3.1
  /// (coverage only up to the first comparison of the last character)
  /// and opens the run's group in the store. \p ParentCount becomes the
  /// group's parent-chain base (substitution candidates add one).
  RunStats computeStats(const RunResult &RR, uint32_t ParentCount);

  /// Generates substitution candidates from the comparisons of \p RR on
  /// \p Input (procedure addInputs, lines 19-25). \p ParentRec is the
  /// store record of \p Input (the candidates' materialization parent).
  void addInputs(const std::string &Input, const RunResult &RR,
                 const RunStats &Stats, uint32_t ParentCount,
                 uint32_t ParentRec);

  /// Puts \p Input back into the queue after a run that tried to read
  /// past the end: the parser wants more input, so the prefix deserves
  /// further random extensions (Section 2: "continue with the generated
  /// prefix"). Path-novelty decay keeps this from looping forever.
  void requeuePrefix(const std::string &Input, uint64_t Hash,
                     const RunStats &Stats, uint32_t ParentCount,
                     uint32_t ParentRec);

  /// Brings every queue score up to date with vBr (lines 40-43) and the
  /// path counts, and enforces the queue cap; a trim also resets
  /// oversized requeue counters, as before.
  void rescoreQueue() {
    TELEMETRY_SPAN("rescore");
    if (Store.rescore(VBr, PathCounts) &&
        RequeueCounts.size() > Config.MaxQueue)
      RequeueCounts.clear();
  }

  /// Samples this shard's local state and writes one heartbeat record.
  /// Called by the runCheck whose tick crossed an interval boundary;
  /// reads only shard-confined state, so concurrent shard emissions need
  /// no shared locks beyond the emitter's own.
  void emitHeartbeat() {
    HeartbeatSample HS;
    HS.Shard = Sync ? Sync->index() : 0;
    HS.Frontier = VBr.size();
    HS.QueueBytes = Store.bytesInUse();
    HS.ShardLag = Sync ? Sync->Stats.MaxFrontierLag : 0;
    Config.Heartbeat->emit(HS);
  }

  /// Counts one execution of the parse path \p PathHash, decaying the
  /// table when it outgrows the queue cap. The table previously grew
  /// without bound over a campaign (8+4 bytes per distinct path);
  /// halving all counts and dropping the zeros keeps it capped while
  /// preserving the ranking's shape — hot paths stay hot relative to
  /// cold ones, and a count that decayed to zero had already stopped
  /// mattering (the score term saturates at PathPenaltyCap). Each
  /// count's fate depends on that count alone, so decay is independent
  /// of the table's layout. The store hears of every change that can
  /// move a score, so its next rescore re-terms just those groups.
  void notePath(uint64_t PathHash) {
    uint32_t &Seen = PathCounts[PathHash];
    if (pathPenaltyMoves(Seen, Heur))
      Store.pathCountMoved(PathHash);
    ++Seen;
    Store.Stats.PeakPathTable =
        std::max<uint64_t>(Store.Stats.PeakPathTable, PathCounts.size());
    if (PathCounts.size() <= Config.MaxQueue)
      return;
    PathCounts.retainIf([](uint64_t, uint32_t &Count) {
      Count /= 2;
      return Count != 0;
    });
    ++Store.Stats.PathDecays;
    Store.pathCountsDecayed();
  }

  /// Fills Expansions with the possible replacement strings a comparison
  /// admits. The views point into \p RR's arena (the event's operand
  /// slices) or into RangeChars, so they stay valid until the next call
  /// or the next execution into \p RR.
  void expansions(const RunResult &RR, const ComparisonEvent &E);

  /// Push-time run term of the candidates one run spawns; a push adds
  /// its candidateTerm. The store's rescore sums the same two terms, so a
  /// candidate's score is identical no matter which layer computes it.
  /// PathCounts only changes between executions, so callers compute this
  /// once per addInputs / requeuePrefix call, not once per candidate.
  double pushRunTerm(uint32_t NewBranchCount, double AvgStack,
                     uint32_t NumParents, uint64_t PathHash) const {
    const uint32_t *PathCount = PathCounts.find(PathHash);
    return runTerm(NewBranchCount, AvgStack, NumParents,
                   PathCount ? *PathCount : 0, Heur);
  }

  /// Crosses every epoch boundary the execution count has passed:
  /// publishes this shard's packet (coverage delta + next-pop
  /// candidate), then merges peers' packets through the previous epoch —
  /// the lag-1 discipline that makes every merge point and packet content
  /// a pure function of execution counts. No-op when unsharded.
  void shardSyncPoints();

  /// Builds and publishes the packet of epoch EpochsDone. Final packets
  /// carry the last coverage delta and never a candidate.
  void publishShardPacket(bool Final);

  /// Bookkeeping of one consumed peer packet: folds the coverage delta
  /// into vBr and imports the migrated candidate (rescored against this
  /// shard's own coverage and path counts). \p Alive distinguishes
  /// in-loop merges from the end-of-campaign drain, where candidates are
  /// counted rejected — the campaign is over and cannot execute them.
  void handleShardPacket(const ShardPacket &P, bool Alive);

  char randomChar() {
    // "A random character from the set of all ASCII characters"; we skew
    // towards printables with occasional whitespace/control bytes.
    uint64_t Roll = R.below(16);
    if (Roll == 0)
      return '\n';
    if (Roll == 1)
      return '\t';
    return R.nextPrintable();
  }

  const Subject &S;
  const FuzzerOptions &Opts;
  const PFuzzerOptions &Config;
  const HeuristicOptions &Heur;
  Rng R;
  FuzzReport Report;
  /// Branches covered by valid inputs (Algorithm 1's vBr, line 2); lives
  /// directly in the report. A dense bitmap: the test-per-branch loops in
  /// runCheck/computeStats/rescoreQueue are the campaign's hottest code.
  BranchCoverageMap &VBr = Report.ValidBranches;
  /// Per-path execution counts, bounded by notePath's decay.
  PathCountMap PathCounts;
  /// Seen-candidate dedup keyed by 64-bit input hash instead of the input
  /// bytes. A colliding hash drops a genuinely new candidate; tolerated —
  /// at ~1e5 live entries the odds are ~1e-9 per insert, the search is
  /// redundant by design, and the set costs one 8-byte slot per entry
  /// (at 3/8 to 3/4 load) instead of a stored string.
  FlatHashSet Enqueued;
  /// The candidate priority queue: highest score first, earlier push
  /// first among equal scores — see core/CandidateStore.h.
  CandidateStore Store;
  /// How often each prefix was re-enqueued for another random extension;
  /// bounded so retired prefixes stop consuming budget. Keyed by the
  /// prefix's 64-bit input hash (the campaign already carries it)
  /// instead of the prefix bytes: no O(len) copy + hash per requeue, one
  /// 16-byte slot per entry instead of a stored string. A colliding hash
  /// merges two prefixes' retry counters; tolerated for the same reason
  /// as the Enqueued set above.
  FlatHashMap<uint32_t> RequeueCounts;
  uint64_t LastRescore = 0;
  /// Reusable scratch for runCheck's distinct-branch extraction; cleared,
  /// never reallocated, on each execution.
  std::vector<uint32_t> CoveredScratch;
  /// Per-run not-yet-covered list, handed to the store's makeRun;
  /// recycled across runs (the store copies it).
  std::vector<uint32_t> FreshScratch;
  /// Rolling FNV-1a prefix hashes of the current addInputs input:
  /// PrefixHashes[i] hashes the first i bytes, so a candidate's hash is
  /// extendHash(PrefixHashes[SpliceAt], Rep) — no string is built.
  std::vector<uint64_t> PrefixHashes;
  /// expansions()'s output and its CharRange characters; recycled across
  /// comparisons so addInputs allocates nothing per event.
  std::vector<std::string_view> Expansions;
  std::string RangeChars;
  /// One candidate of the current addInputs call: Input[0, SpliceAt) +
  /// the replacement Bytes[Ofs, Ofs + Len). Bytes is RR's event arena or
  /// RangeCopies; offsets, not views, because RangeCopies grows.
  struct Candidate {
    uint64_t Hash;
    const std::string *Bytes;
    uint32_t Ofs;
    uint32_t Len;
    uint32_t SpliceAt;
  };
  /// The current addInputs call's candidates and the CharRange
  /// replacement bytes among them; recycled across calls.
  std::vector<Candidate> Candidates;
  std::string RangeCopies;
  /// The random-extension input (line 15), recycled across iterations.
  std::string EInp;
  /// Shard-sync endpoint, or null when this campaign is unsharded.
  ShardEndpoint *Sync;
  /// Epoch boundaries crossed so far (== packets published).
  uint64_t EpochsDone = 0;
  /// vBr epoch at the last publish: the exportDelta anchor, so each
  /// packet carries exactly the outcomes covered since the previous one.
  uint64_t LastPublishedMark = 0;
  /// Scratch of publishShardPacket / handleShardPacket (recycled).
  CandidateStore::Exported ExportScratch;
  std::vector<uint32_t> ImportFilterScratch;
};

} // namespace

FuzzReport Campaign::run() {
  std::string Input(1, randomChar()); // line 4
  uint64_t InputHash = hashInput(Input);
  uint32_t ParentCount = 0;
  // The current input's store record: candidates spawned from it
  // reference it as their materialization parent instead of copying its
  // bytes. Popping a candidate hands over its (already pinned) record;
  // campaign starts and restarts intern a fresh root.
  uint32_t CurId = Store.internRoot(Input, InputHash);
  uint64_t SampleEvery = std::max<uint64_t>(1, Opts.MaxExecutions / 256);
  // The two RunResults live across the whole campaign: each execution
  // recycles their trace buffers (Subject::execute clears contents but
  // keeps capacity), so the steady state allocates nothing per run.
  RunResult RR, RE;
  while (Report.Executions < Opts.MaxExecutions) {
    bool Valid = runCheck(Input, RR); // line 7
    RunStats Stats = computeStats(RR, ParentCount);
    notePath(Stats.PathHash);
    // The extension input's record, when this iteration makes one; its
    // substitution children splice below its one-char suffix.
    uint32_t EId = CandidateStore::None;
    if (Valid) {
      addInputs(Input, RR, Stats, ParentCount, CurId); // via validInp, line 44
    } else {
      // "After every rejection, we satisfy the comparisons leading to
      // rejection": substitutions from the bare run first. (A random
      // extension could merge into the last token -- e.g. a letter after
      // a keyword -- and hide these alternatives.)
      addInputs(Input, RR, Stats, ParentCount, CurId);
      if (Report.Executions >= Opts.MaxExecutions) {
        Store.releaseRun(Stats.Run);
        break;
      }
      // Line 15. The FNV-1a state of Input extends by the one new
      // character; no string is built or rehashed.
      assert(InputHash == hashInput(Input) && "stale current-input hash");
      char C = randomChar();
      EInp.assign(Input);
      EInp.push_back(C);
      uint64_t EHash = extendHash(InputHash, std::string_view(&C, 1));
      // Line 9-12: run the extended input; whether it turned out valid or
      // not, its comparisons seed the next substitutions.
      runCheck(EInp, RE);
      RunStats EStats = computeStats(RE, ParentCount);
      notePath(EStats.PathHash);
      EId = Store.internChild(CurId, Input.size(), Input,
                              std::string_view(EInp).substr(Input.size()),
                              EHash);
      addInputs(EInp, RE, EStats, ParentCount, EId);
      Store.releaseRun(EStats.Run);
    }
    // A run that read past the end wants more input: keep the prefix
    // alive so it receives further random extensions.
    if (RR.hitEof() && Input.size() < Opts.MaxInputLen)
      requeuePrefix(Input, InputHash, Stats, ParentCount, CurId);
    Store.releaseRun(Stats.Run);
    if (Report.Executions / SampleEvery !=
        (Report.Executions + 1) / SampleEvery)
      sampleTimeline();
    // Path-novelty decay: candidate scores embed the path counts of their
    // creation time; refresh them periodically so lineages that keep
    // re-executing the same parse path sink in the queue (Section 3.2's
    // "ranking those highest that cover new paths").
    if (Report.Executions >= LastRescore + 384) {
      LastRescore = Report.Executions;
      rescoreQueue();
    }
    // Shard synchronization at deterministic execution-count boundaries.
    // Before the empty-queue check: a migrated candidate can rescue an
    // exhausted queue instead of forcing a random restart.
    if (Sync)
      shardSyncPoints();
    if (Store.empty()) {
      // Search exhausted (tiny languages): restart from a fresh random
      // character to keep exploring different seeds.
      Store.release(EId);
      Store.release(CurId);
      Input.assign(1, randomChar());
      InputHash = hashInput(Input);
      ParentCount = 0;
      CurId = Store.internRoot(Input, InputHash);
      continue;
    }
    CandidateStore::Popped Best = Store.pop(Input); // line 14
    if (Opts.Verbose)
      std::fprintf(stderr,
                   "pop score=%.1f new=%zu len=%zu rep=%u par=%u [%s]\n",
                   Best.Score, static_cast<size_t>(Best.NewBranchCount),
                   Input.size(), Best.ReplacementLen, Best.NumParents,
                   Input.c_str());
    // The old current input (and this iteration's extension) stop being
    // potential parents; their pins drop and the popped record's takes
    // over. Any queued descendant keeps the needed ancestry alive.
    Store.release(EId);
    Store.release(CurId);
    CurId = Best.Id;
    InputHash = Best.InputHash;
    ParentCount = Best.NumParents;
  }
  sampleTimeline();
  // Terminal exchange: the Final packet carries the last coverage delta
  // and tells peers to stop waiting for this shard; the drain consumes
  // every remaining peer packet so that globally every published packet
  // is merged exactly once (late migrations count as rejected — the
  // campaign cannot execute them anymore).
  if (Sync) {
    ++EpochsDone;
    publishShardPacket(/*Final=*/true);
    Sync->drainAll(
        [this](const ShardPacket &P) { handleShardPacket(P, false); });
  }
  Store.samplePeaks();
  if (Config.TelemetryOut) {
    TelemetrySnapshot &T = *Config.TelemetryOut;
    T = TelemetrySnapshot();
    T.Executions = Report.Executions;
    T.ValidInputs = Report.ValidInputs.size();
    T.FrontierSize = VBr.size();
    T.Queue = Store.Stats;
    if (Sync)
      T.Sharding = Sync->Stats;
  }
  return std::move(Report);
}

bool Campaign::runCheck(const std::string &Input, RunResult &RR) {
  // Recycles RR's buffers. The search reads comparisons, EOF accesses,
  // stack depth and branches: no call trace, no compared bytes.
  S.execute(Input, InstrumentationMode::Comparisons, RR);
  ++Report.Executions;
  // Heartbeat: one branch when disabled, one relaxed increment when
  // armed. The claiming tick samples and emits; nothing here reads back
  // into the search.
  if (Config.Heartbeat && Config.Heartbeat->tick())
    emitHeartbeat();
  if (RR.ExitCode != 0)
    return false;
  if (Opts.OnValidInput)
    Opts.OnValidInput(Input);
  RR.coveredBranches(CoveredScratch);
  bool NewCoverage = false;
  for (uint32_t B : CoveredScratch) {
    if (!VBr.test(B)) {
      NewCoverage = true;
      break;
    }
  }
  if (!NewCoverage)
    return false; // line 29: valid requires exit 0 AND new branches
  // validInp (lines 37-45): print, grow vBr, re-rank the queue.
  Report.ValidInputs.push_back(Input);
  VBr.insert(CoveredScratch.begin(), CoveredScratch.end());
  sampleTimeline();
  rescoreQueue();
  return true;
}

void Campaign::expansions(const RunResult &RR, const ComparisonEvent &E) {
  std::string_view Expected = RR.expected(E);
  Expansions.clear();
  switch (E.Kind) {
  case CompareKind::CharEq:
  case CompareKind::StrEq:
    Expansions.push_back(Expected);
    break;
  case CompareKind::CharSet:
    for (size_t I = 0; I != Expected.size(); ++I)
      Expansions.push_back(Expected.substr(I, 1));
    break;
  case CompareKind::CharRange: {
    unsigned Lo = static_cast<unsigned char>(Expected[0]);
    unsigned Hi = static_cast<unsigned char>(Expected[1]);
    // An inverted range (a subject comparing with swapped bounds) admits
    // no character at all; without this guard Hi - Lo + 1 underflows into
    // a huge sample bound and fabricates out-of-range candidates.
    if (Hi < Lo)
      break;
    RangeChars.clear();
    if (Hi - Lo + 1 <= 16) {
      for (unsigned C = Lo; C <= Hi; ++C)
        RangeChars.push_back(static_cast<char>(C));
    } else {
      // Large range: the boundaries plus a deterministic random sample.
      RangeChars.push_back(static_cast<char>(Lo));
      RangeChars.push_back(static_cast<char>(Hi));
      for (int I = 0; I < 6; ++I)
        RangeChars.push_back(static_cast<char>(Lo + R.below(Hi - Lo + 1)));
    }
    // Views are taken only once RangeChars is complete, so no append can
    // move the bytes under them.
    for (size_t I = 0; I != RangeChars.size(); ++I)
      Expansions.push_back(std::string_view(RangeChars).substr(I, 1));
    break;
  }
  }
}

Campaign::RunStats Campaign::computeStats(const RunResult &RR,
                                          uint32_t ParentCount) {
  RunStats Stats;
  // One walk over the comparisons yields all three comparison facts.
  //
  // The last compared input position: substitutions always happen at the
  // last index where a comparison took place (Section 3). Comparisons on
  // the EOF sentinel are excluded -- "an attempt to access a character
  // beyond the length of the input" means the parser wants *more* input,
  // which Algorithm 1 serves with the random extension (line 15), not
  // with substitution. Implicit-flow events are invisible to the
  // taint-based extraction and are skipped as well.
  //
  // Coverage credit for the heuristic: Section 3.1 counts coverage only
  // "up to the last accepted character" so error-handling code after the
  // rejection point earns nothing. Operationally we cut the trace right
  // after the run's last comparison: once the parser stops examining
  // input, everything that follows is error unwinding. (This also gives
  // runs that accepted a whole keyword credit for the parser progress the
  // keyword unlocked, which a cut at the *first* comparison of the last
  // character would discard.)
  //
  // Average stack size between the second-last and last comparison.
  uint32_t Cutoff = static_cast<uint32_t>(RR.BranchTrace.size());
  const ComparisonEvent *Last = nullptr, *SecondLast = nullptr;
  for (const ComparisonEvent &E : RR.Comparisons) {
    if (E.Implicit)
      continue;
    SecondLast = Last;
    Last = &E;
    if (E.OnEof || E.Taint.empty())
      continue;
    Stats.LastIdx = std::max(Stats.LastIdx, E.Taint.maxIndex());
    Stats.HaveIdx = true;
  }
  if (Last != nullptr) {
    Cutoff = Last->TracePosition + 1;
    Stats.AvgStack = SecondLast != nullptr
                         ? (Last->StackDepth + SecondLast->StackDepth) / 2.0
                         : Last->StackDepth;
  }

  // One walk over the trace up to the cutoff: the outcomes vBr lacks
  // become the run's list — stored once as a group in the candidate
  // store, which every candidate spawned from this run references — and
  // the distinct set, hashed regardless of order, identifies the parse
  // path.
  FreshScratch.clear();
  Stats.PathHash = RR.forEachDistinctBranchUpTo(Cutoff, [this](uint32_t B) {
    if (!VBr.test(B))
      FreshScratch.push_back(B);
  });
  Stats.NewBranchCount = static_cast<uint32_t>(FreshScratch.size());
  Stats.Run = Store.makeRun(FreshScratch, VBr.epoch(), Stats.AvgStack,
                            Stats.PathHash, ParentCount);
  return Stats;
}

void Campaign::addInputs(const std::string &Input, const RunResult &RR,
                         const RunStats &Stats, uint32_t ParentCount,
                         uint32_t ParentRec) {
  if (!Stats.HaveIdx)
    return;
  // Rolling prefix hashes, computed once per call: candidate hashes are
  // derived from them without building any candidate string.
  PrefixHashes.resize(Input.size() + 1);
  uint64_t H = FnvBasis;
  PrefixHashes[0] = H;
  for (size_t I = 0; I != Input.size(); ++I) {
    H ^= static_cast<unsigned char>(Input[I]);
    H *= FnvPrime;
    PrefixHashes[I + 1] = H;
  }
  // Enumerate every candidate first, in order, and prefetch its dedup
  // slot: the set is far larger than the cache, so probing each one as
  // it is found stalls on a miss per candidate, while the insert pass
  // below finds the slots already loaded.
  Candidates.clear();
  RangeCopies.clear();
  for (const ComparisonEvent &E : RR.Comparisons) {
    if (E.Implicit || E.OnEof || E.Taint.empty())
      continue;
    // Substitutions happen at the last compared index -- except for
    // string comparisons, which are always worth satisfying ("values that
    // stem from string comparisons ... will likely lead to the complex
    // input structures we want to cover", Section 3). Runtime keyword and
    // member-name strcmps (tinyc/mjs execute the program) fire *after*
    // parse-time comparisons at later indices, so a strict last-index
    // rule would drop them.
    if (E.Taint.maxIndex() != Stats.LastIdx &&
        E.Kind != CompareKind::StrEq)
      continue;
    size_t SpliceAt = std::min<size_t>(E.Taint.minIndex(), Input.size());
    expansions(RR, E);
    for (std::string_view Rep : Expansions) {
      // The candidate is Input[0, SpliceAt) + Rep; compare and hash it
      // against the parent in place.
      size_t NewLen = SpliceAt + Rep.size();
      if ((NewLen == Input.size() &&
           Input.compare(SpliceAt, Rep.size(), Rep) == 0) ||
          NewLen > Opts.MaxInputLen)
        continue;
      // One FNV-1a extension serves the dedup set and the store record:
      // the hash rides on the record instead of being recomputed at pop
      // time.
      uint64_t Hash = extendHash(PrefixHashes[SpliceAt], Rep);
      Enqueued.prefetch(Hash);
      // Operand slices stay valid in RR's arena; RangeChars is rewritten
      // by the next expansions() call, so its bytes are copied out.
      Candidate &C = Candidates.emplace_back();
      C.Hash = Hash;
      C.Len = static_cast<uint32_t>(Rep.size());
      C.SpliceAt = static_cast<uint32_t>(SpliceAt);
      if (E.Kind == CompareKind::CharRange) {
        C.Bytes = &RangeCopies;
        C.Ofs = static_cast<uint32_t>(RangeCopies.size());
        RangeCopies.append(Rep);
      } else {
        C.Bytes = &RR.EventChars;
        C.Ofs = static_cast<uint32_t>(Rep.data() - RR.EventChars.data());
        assert(C.Ofs + Rep.size() <= RR.EventChars.size() &&
               "operand expansion outside the event arena");
      }
    }
  }
  // Every candidate of this call shares the run's term; only the
  // candidate term differs.
  double RunTerm = pushRunTerm(Stats.NewBranchCount, Stats.AvgStack,
                               ParentCount, Stats.PathHash);
  for (const Candidate &C : Candidates) {
    ++Store.Stats.DedupProbes;
    if (!Enqueued.insert(C.Hash)) {
      ++Store.Stats.DedupHits;
      continue;
    }
    std::string_view Rep = std::string_view(*C.Bytes).substr(C.Ofs, C.Len);
    double Score =
        RunTerm + static_cast<double>(candidateTerm(
                      C.SpliceAt + C.Len, C.Len, /*ParentDelta=*/1, Heur));
    Store.push(Stats.Run, ParentRec, Input, C.SpliceAt, Rep, C.Hash, C.Len,
               /*ParentDelta=*/1, Score);
    if (Store.queueSize() > Config.MaxQueue)
      rescoreQueue();
  }
}

void Campaign::requeuePrefix(const std::string &Input, uint64_t Hash,
                             const RunStats &Stats, uint32_t ParentCount,
                             uint32_t ParentRec) {
  uint32_t &Count = RequeueCounts[Hash];
  if (Count >= 12)
    return; // retired: this prefix had its chances
  ++Count;
  // Deliberately bypasses the Enqueued dedup: the same prefix re-enters
  // once per execution so a fresh random extension gets its chance; each
  // round costs it an extra score point so retries drain gradually.
  ++Store.Stats.Requeues;
  double Score = pushRunTerm(Stats.NewBranchCount, Stats.AvgStack,
                             ParentCount, Stats.PathHash) +
                 static_cast<double>(candidateTerm(
                     static_cast<uint32_t>(Input.size()), 1,
                     /*ParentDelta=*/0, Heur)) -
                 Count;
  if (Opts.Verbose)
    std::fprintf(stderr, "requeue score=%.1f count=%u [%s]\n", Score, Count,
                 Input.c_str());
  // An empty-suffix record spliced at the full length: the requeued
  // candidate *is* its parent, byte for byte, at zero stored bytes.
  Store.push(Stats.Run, ParentRec, Input, Input.size(), std::string_view(),
             Hash, /*ReplacementLen=*/1, /*ParentDelta=*/0, Score);
  if (Store.queueSize() > Config.MaxQueue)
    rescoreQueue();
}

void Campaign::shardSyncPoints() {
  uint64_t Interval = std::max<uint64_t>(1, Config.ShardSyncInterval);
  // An iteration can cross more than one boundary (two executions per
  // iteration at a tiny interval); every crossed boundary publishes its
  // own packet so the per-producer epoch sequence stays gapless — the
  // collect protocol counts on packets arriving as 1, 2, 3, ...
  while (Report.Executions >= (EpochsDone + 1) * Interval) {
    TELEMETRY_SPAN("shard_sync");
    ++EpochsDone;
    publishShardPacket(/*Final=*/false);
    // Lag-1 merge: consume peers through the previous epoch. Publishing
    // *before* collecting keeps the protocol deadlock-free — every shard
    // makes its packet available before it waits on anyone else's.
    Sync->collectThrough(EpochsDone - 1, [this](const ShardPacket &P) {
      handleShardPacket(P, /*Alive=*/true);
    });
  }
}

void Campaign::publishShardPacket(bool Final) {
  ShardPacket P;
  P.Epoch = EpochsDone;
  P.Final = Final;
  VBr.exportDelta(LastPublishedMark, P.Branches);
  LastPublishedMark = VBr.epoch();
  // Migration payload: the exact next pop of this shard's queue — its
  // best-scored lead, worth propagating instead of re-deriving N times.
  // Final packets skip it (peers may already be draining).
  if (!Final && !Store.empty()) {
    Store.exportTop(ExportScratch);
    P.HasCandidate = true;
    P.CandidateBytes = ExportScratch.Bytes;
    P.CandidateHash = ExportScratch.Hash;
    P.CandidateBranches = ExportScratch.Branches;
    P.CandidateAvgStack = ExportScratch.AvgStack;
    P.CandidatePathHash = ExportScratch.PathHash;
    P.CandidateNumParents = ExportScratch.NumParents;
    P.CandidateReplacementLen = ExportScratch.ReplacementLen;
  }
  Sync->publish(std::move(P));
}

void Campaign::handleShardPacket(const ShardPacket &P, bool Alive) {
  // Foreign coverage folds straight into vBr: the valid-input novelty
  // test and the heuristic's NewBranches term now measure against the
  // joint frontier, so shards stop re-earning each other's discoveries.
  // vBr stays grow-only, which is all the store's monotone group
  // filtering assumes.
  Sync->Stats.BranchesImported +=
      VBr.mergeDelta(P.Branches.begin(), P.Branches.end());
  if (!P.HasCandidate)
    return;
  // Rejected when oversize, arriving after this campaign's budget ended,
  // or already enqueued here (or previously migrated in).
  if (!Alive || P.CandidateBytes.size() > Opts.MaxInputLen) {
    ++Sync->Stats.MigrationsRejected;
    return;
  }
  ++Store.Stats.DedupProbes;
  if (!Enqueued.insert(P.CandidateHash)) {
    ++Store.Stats.DedupHits;
    ++Sync->Stats.MigrationsRejected;
    return;
  }
  // Rescore against *this* shard's coverage: the carried branch list is
  // re-filtered against local vBr and the score recomputed with local
  // path counts, so an import competes in the local queue on local
  // merit.
  ImportFilterScratch.clear();
  for (uint32_t B : P.CandidateBranches)
    if (!VBr.test(B))
      ImportFilterScratch.push_back(B);
  uint32_t Run = Store.makeRun(ImportFilterScratch, VBr.epoch(),
                               P.CandidateAvgStack, P.CandidatePathHash,
                               P.CandidateNumParents);
  double Score =
      pushRunTerm(static_cast<uint32_t>(ImportFilterScratch.size()),
                  P.CandidateAvgStack, P.CandidateNumParents,
                  P.CandidatePathHash) +
      static_cast<double>(
          candidateTerm(static_cast<uint32_t>(P.CandidateBytes.size()),
                        P.CandidateReplacementLen, /*ParentDelta=*/0, Heur));
  // Root-shaped push: no parent record, splice at 0, the full bytes as
  // the suffix.
  Store.push(Run, CandidateStore::None, P.CandidateBytes, /*SpliceAt=*/0,
             P.CandidateBytes, P.CandidateHash, P.CandidateReplacementLen,
             /*ParentDelta=*/0, Score);
  Store.releaseRun(Run);
  ++Sync->Stats.MigrationsAccepted;
  if (Store.queueSize() > Config.MaxQueue)
    rescoreQueue();
}

namespace {

/// Per-shard seed: a SplitMix64 finalizer over (seed, shard) so shard
/// streams are decorrelated. Deliberately maps shard 0 away from the
/// campaign seed — a sharded search differs from the unsharded one
/// anyway, and distinct streams avoid N shards racing through identical
/// opening moves.
uint64_t mixShardSeed(uint64_t Seed, uint32_t Shard) {
  uint64_t Z = Seed + 0x9E3779B97F4A7C15ULL * (uint64_t(Shard) + 1);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

/// The sharded campaign engine: N full shard campaigns on dedicated
/// threads, exchanging frontier deltas and candidates through a ShardHub,
/// reduced into one FuzzReport in stable shard order. Deterministic for
/// fixed (seed, N, interval): per-shard seeds and budgets are computed,
/// sync points are execution-count epochs, and the reduce never looks at
/// completion order.
FuzzReport runSharded(const Subject &S, const FuzzerOptions &Opts,
                      const PFuzzerOptions &Config) {
  uint32_t N = Config.Shards;
  ShardHub Hub(N);
  // Option blocks and telemetry sinks live here so the campaign-held
  // references stay valid for the threads' whole lifetime.
  std::vector<FuzzerOptions> ShardOpts(N);
  std::vector<PFuzzerOptions> ShardConfigs(N);
  std::vector<TelemetrySnapshot> Telemetry_(N);
  std::vector<FuzzReport> Reports(N);
  // OnValidInput is caller-supplied and not required to be thread-safe;
  // serialize it. Callback order across shards is timing-dependent, but
  // every caller in the tree accumulates commutatively (token sets), and
  // the FuzzReport itself never depends on the callback.
  std::mutex ValidMutex;
  for (uint32_t I = 0; I != N; ++I) {
    FuzzerOptions &SO = ShardOpts[I];
    SO = Opts;
    SO.Seed = mixShardSeed(Opts.Seed, I);
    // Budget split: first MaxExecutions % N shards take the remainder,
    // so the shard budgets are a deterministic partition of the total.
    SO.MaxExecutions =
        Opts.MaxExecutions / N + (I < Opts.MaxExecutions % N ? 1 : 0);
    if (Opts.OnValidInput) {
      auto Inner = Opts.OnValidInput;
      SO.OnValidInput = [&ValidMutex, Inner](std::string_view Input) {
        std::lock_guard<std::mutex> Lock(ValidMutex);
        Inner(Input);
      };
    }
    PFuzzerOptions &SC = ShardConfigs[I];
    SC = Config;
    SC.Shards = 1;
    SC.TelemetryOut = Config.TelemetryOut ? &Telemetry_[I] : nullptr;
  }
  // Dedicated threads by design — see PFuzzerOptions::Shards.
  std::vector<std::thread> Threads;
  Threads.reserve(N);
  for (uint32_t I = 0; I != N; ++I)
    Threads.emplace_back([&S, &ShardOpts, &ShardConfigs, &Reports, &Hub, I] {
      Reports[I] =
          Campaign(S, ShardOpts[I], ShardConfigs[I], &Hub.endpoint(I)).run();
    });
  for (std::thread &T : Threads)
    T.join();

  if (Config.TelemetryOut) {
    // Fold per-shard snapshots in stable shard order.
    *Config.TelemetryOut = TelemetrySnapshot();
    for (uint32_t I = 0; I != N; ++I)
      Config.TelemetryOut->accumulate(Telemetry_[I]);
  }

  // Deterministic reduce, stable shard order (never completion order).
  FuzzReport Merged;
  uint64_t Offset = 0;
  uint64_t RunningCoverage = 0;
  for (uint32_t I = 0; I != N; ++I) {
    FuzzReport &R = Reports[I];
    Merged.Executions += R.Executions;
    for (std::string &Input : R.ValidInputs)
      Merged.ValidInputs.push_back(std::move(Input));
    // Union of per-shard frontiers. Every foreign branch a shard merged
    // was genuinely covered by its origin shard, so the union equals the
    // coverage of the concatenated valid-input stream.
    std::vector<uint32_t> Values = R.ValidBranches.values();
    Merged.ValidBranches.insert(Values.begin(), Values.end());
    // Timeline: concatenate with per-shard execution offsets, forcing
    // the coverage coordinate monotone (shards overlap in wall-clock, so
    // a serialized timeline is an approximate diagnostic, not a report
    // invariant — documented in docs/TUNING.md).
    for (const std::pair<uint64_t, uint64_t> &Sample : R.CoverageTimeline) {
      uint64_t Cov = std::max(RunningCoverage, Sample.second);
      RunningCoverage = Cov;
      if (!Merged.CoverageTimeline.empty() &&
          Merged.CoverageTimeline.back() ==
              std::make_pair(Offset + Sample.first, Cov))
        continue;
      Merged.CoverageTimeline.emplace_back(Offset + Sample.first, Cov);
    }
    Offset += R.Executions;
  }
  std::pair<uint64_t, uint64_t> FinalSample(Merged.Executions,
                                            Merged.ValidBranches.size());
  if (Merged.CoverageTimeline.empty() ||
      Merged.CoverageTimeline.back() != FinalSample)
    Merged.CoverageTimeline.push_back(FinalSample);
  // The merged union is the campaign's real frontier; per-shard
  // accumulation above only kept the largest single-shard view of it.
  if (Config.TelemetryOut)
    Config.TelemetryOut->FrontierSize = Merged.ValidBranches.size();
  return Merged;
}

} // namespace

FuzzReport PFuzzer::run(const Subject &S, const FuzzerOptions &Opts) {
  // The candidate store's packed heap keys hold scores exactly only for
  // bounded input lengths (see CandidateStore::Entry).
  if (Opts.MaxInputLen > CandidateStore::MaxExactInputLen)
    throw std::invalid_argument(
        "pfuzzer: MaxInputLen exceeds CandidateStore::MaxExactInputLen");
  // A trim keeps MaxQueue / 2 candidates: below 2 it would keep none, and
  // every push would trigger a pass.
  if (Options.MaxQueue < 2)
    throw std::invalid_argument("pfuzzer: MaxQueue must be at least 2");
  if (Options.Shards == 0)
    throw std::invalid_argument("pfuzzer: Shards must be at least 1");
  if (Options.Shards > 1)
    return runSharded(S, Opts, Options);
  // Unsharded: the plain sequential engine.
  return Campaign(S, Opts, Options).run();
}
