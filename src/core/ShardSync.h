//===- core/ShardSync.h - Sharded-campaign synchronization ------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exchange layer of the sharded campaign engine (PFuzzerOptions::
/// Shards): N shard loops — each a full Algorithm 1 campaign with its own
/// candidate store — periodically trade two things through one shared
/// mailbox:
///
///   1. *Coverage-frontier deltas*: the branch outcomes a shard's valid
///      inputs newly covered since its last packet (exported from the
///      BranchCoverageMap journal). Receivers fold them into their own
///      vBr, so the heuristic's NewBranches term and the valid-input
///      novelty test see the joint frontier instead of re-deriving it
///      N times.
///   2. *Candidate migration*: the publisher's next pop
///      (full bytes + run features). Importers rescore it against their
///      own coverage and path counts, so a keyword discovery propagates
///      instead of waiting to be rediscovered.
///
/// Synchronization is asynchronous but *deterministic*: packets are
/// tagged with logical epochs counted in shard-local executions (one
/// boundary every PFuzzerOptions::ShardSyncInterval executions), never in
/// wall-clock. At boundary E a shard first publishes its packet E, then
/// consumes every peer's packets through epoch E-1 — blocking briefly if
/// a peer has not reached E-1 yet. Both the content of every packet and
/// the exact merge points in every shard's execution stream are pure
/// functions of (seed, shard count, interval), so sharded reports are
/// bit-reproducible.
///
/// The mailbox is one mutex and one condition variable over a FIFO per
/// (consumer, producer) pair. A boundary comes once every few hundred
/// executions, so the lock is never contended on the per-execution path.
/// A packet is built once and shared by every receiving peer. The FIFOs
/// are unbounded, so publishing never blocks; the lag-1 protocol keeps a
/// live consumer's FIFOs short.
///
/// Lifetimes end at different times (budgets split unevenly, valid-input
/// work varies), so a finishing shard publishes a terminal Final packet
/// carrying its last delta and then drains every peer's FIFO until each
/// peer's Final packet has been consumed. Globally, every published
/// packet is therefore consumed exactly once — the published == merged
/// ShardStats invariant the benches check.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_CORE_SHARDSYNC_H
#define PFUZZ_CORE_SHARDSYNC_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pfuzz {

/// Diagnostic counters of one shard's sync endpoint. Aggregated across
/// shards by the engine (see accumulate) and flowing through
/// eval/Campaign into BenchJson. Observational only — the search
/// trajectory is a function of the packet protocol, not of these counts.
struct ShardStats {
  /// Packets delivered to peers (one per packet per receiving peer).
  uint64_t DeltasPublished = 0;
  /// Packets consumed from peers (loop merges + end-of-campaign drain).
  /// Summed across all shards this equals DeltasPublished once every
  /// shard has drained.
  uint64_t DeltasMerged = 0;
  /// Branch outcomes newly covered here because a peer's delta carried
  /// them first.
  uint64_t BranchesImported = 0;
  /// Migration candidates offered to peers (one per carried candidate
  /// per receiving peer).
  uint64_t MigrationsOffered = 0;
  /// Offered candidates this shard enqueued into its own store.
  uint64_t MigrationsAccepted = 0;
  /// Offered candidates this shard declined (already enqueued locally,
  /// over the length cap, or arriving after its campaign ended).
  /// Accepted + Rejected == Offered across all shards once drained.
  uint64_t MigrationsRejected = 0;
  /// Epoch boundaries this shard crossed (packets it published).
  uint64_t SyncPoints = 0;
  /// Worst frontier lag observed at any merge point: own epoch minus the
  /// newest peer epoch consumed there. Bounded by the lag-1 protocol
  /// (steady-state 1; finished peers stop counting).
  uint64_t MaxFrontierLag = 0;

  /// Sums counters (maxes MaxFrontierLag) — the sharded engine folds
  /// per-shard endpoints into one campaign total, and the campaign
  /// runners fold per-seed totals into one per-cell total.
  void accumulate(const ShardStats &Other) {
    DeltasPublished += Other.DeltasPublished;
    DeltasMerged += Other.DeltasMerged;
    BranchesImported += Other.BranchesImported;
    MigrationsOffered += Other.MigrationsOffered;
    MigrationsAccepted += Other.MigrationsAccepted;
    MigrationsRejected += Other.MigrationsRejected;
    SyncPoints += Other.SyncPoints;
    MaxFrontierLag = MaxFrontierLag > Other.MaxFrontierLag
                         ? MaxFrontierLag
                         : Other.MaxFrontierLag;
  }
};

/// One epoch's worth of shard-to-peer exchange.
struct ShardPacket {
  /// Logical boundary number (1, 2, ...); strictly increasing per
  /// producer, so a FIFO always holds packets in epoch order.
  uint64_t Epoch = 0;
  /// Terminal packet: the producer's campaign is over and no further
  /// packets will ever arrive from it.
  bool Final = false;
  /// Coverage-frontier delta: branch outcomes the producer newly covered
  /// since its previous packet (a journal slice).
  std::vector<uint32_t> Branches;

  /// Candidate migration payload; absent when the producer's queue was
  /// empty at the boundary (or on Final packets).
  bool HasCandidate = false;
  std::string CandidateBytes;
  /// FNV-1a hash of CandidateBytes (the campaign's dedup key).
  uint64_t CandidateHash = 0;
  /// The candidate run's new-branch list as the producer last filtered
  /// it; importers re-filter against their own vBr.
  std::vector<uint32_t> CandidateBranches;
  double CandidateAvgStack = 0;
  uint64_t CandidatePathHash = 0;
  uint32_t CandidateNumParents = 0;
  uint32_t CandidateReplacementLen = 0;
};

class ShardHub;

/// One shard's view of the exchange: publish at boundaries, collect
/// peers' packets through a target epoch, drain at campaign end. Owned by
/// the hub; used by exactly one shard thread.
class ShardEndpoint {
public:
  /// Consumed-packet callback; receives every packet exactly once.
  using PacketHandler = std::function<void(const ShardPacket &)>;

  ShardStats Stats;

  /// This shard's index within the campaign.
  uint32_t index() const { return Index; }

  /// Publishes \p P to every peer; never blocks. Call with strictly
  /// increasing epochs; the Final packet must be the last.
  void publish(ShardPacket P);

  /// Consumes every peer's packets with epoch <= \p Through, in peer
  /// order, blocking until each peer has produced them (or consumed its
  /// Final packet, after which the peer is exempt). \p Handler runs on
  /// the calling shard's thread for each packet.
  void collectThrough(uint64_t Through, const PacketHandler &Handler);

  /// End-of-campaign drain: consumes every remaining packet of every
  /// peer, through each peer's Final. After all shards return from
  /// drainAll, every published packet has been consumed exactly once.
  void drainAll(const PacketHandler &Handler);

private:
  friend class ShardHub;

  /// Per-peer consumption cursor.
  struct PeerState {
    uint32_t Shard = 0;
    /// Newest epoch consumed from this peer (packets arrive in epoch
    /// order, so this is also a count).
    uint64_t ConsumedEpoch = 0;
    /// The peer's Final packet has been consumed; nothing more will come.
    bool Done = false;
  };

  /// Consumes one packet from \p Peer (blocking) and runs the shared
  /// bookkeeping + \p Handler.
  void consumeOne(PeerState &Peer, const PacketHandler &Handler);

  ShardHub *Hub = nullptr;
  uint32_t Index = 0;
  std::vector<PeerState> Peers;
};

/// Owns the mailbox and the N endpoints of one sharded campaign.
/// Construct before the shard threads start; destroy after they join.
class ShardHub {
public:
  explicit ShardHub(uint32_t NumShards);

  ShardEndpoint &endpoint(uint32_t Shard) { return Endpoints[Shard]; }

private:
  friend class ShardEndpoint;
  using PacketRef = std::shared_ptr<const ShardPacket>;

  /// Appends \p P to the FIFO from \p Producer of every other shard.
  void post(uint32_t Producer, PacketRef P);
  /// Pops the oldest packet from \p Producer to \p Consumer, waiting
  /// while there is none.
  PacketRef take(uint32_t Consumer, uint32_t Producer);

  std::mutex Mutex;
  std::condition_variable Posted;
  /// FIFO from producer P to consumer C at [C * N + P]; the diagonal is
  /// unused. Guarded by Mutex.
  std::vector<std::deque<PacketRef>> Mailbox;
  /// Sized once at construction: shard threads hold references into it.
  std::vector<ShardEndpoint> Endpoints;
};

} // namespace pfuzz

#endif // PFUZZ_CORE_SHARDSYNC_H
