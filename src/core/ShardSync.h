//===- core/ShardSync.h - Sharded-campaign synchronization ------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exchange layer of the sharded campaign engine (PFuzzerOptions::
/// Shards): N shard loops — each a full Algorithm 1 campaign with its own
/// candidate store — periodically trade two things through per-pair SPSC
/// packet rings:
///
///   1. *Coverage-frontier deltas*: the branch outcomes a shard's valid
///      inputs newly covered since its last packet (exported from the
///      BranchCoverageMap journal). Receivers fold them into their own
///      vBr, so the heuristic's NewBranches term and the valid-input
///      novelty test see the joint frontier instead of re-deriving it
///      N times.
///   2. *Candidate migration*: the publisher's top-of-heap candidate
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
/// bit-reproducible while no shard ever takes a lock on its per-execution
/// hot path (ring transfers are acquire/release atomics; a mutex+condvar
/// pair backstops only the blocking waits at epoch boundaries).
///
/// Lifetimes end at different times (budgets split unevenly, valid-input
/// work varies), so a finishing shard publishes a terminal Final packet
/// carrying its last delta and then drains every incoming ring until each
/// peer's Final packet has been consumed. Globally, every published
/// packet is therefore consumed exactly once — the published == merged
/// ShardStats invariant the benches check.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_CORE_SHARDSYNC_H
#define PFUZZ_CORE_SHARDSYNC_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
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
  /// Packets pushed into peer rings (one per packet per receiving peer).
  uint64_t DeltasPublished = 0;
  /// Packets consumed from peer rings (loop merges + end-of-campaign
  /// drain). Summed across all shards this equals DeltasPublished once
  /// every shard has drained.
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
  /// producer, so a ring always holds packets in epoch order.
  uint64_t Epoch = 0;
  /// Terminal packet: the producer's campaign is over and no further
  /// packets will ever arrive from it.
  bool Final = false;
  /// Coverage-frontier delta: branch outcomes the producer newly covered
  /// since its previous packet (journal slice; full resync after a
  /// clear).
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

/// Bounded single-producer single-consumer packet ring. The transfer
/// itself is lock-free (acquire/release on the head and tail indices);
/// the mutex+condvar pair exists only so a producer finding the ring full
/// or a consumer finding it empty can sleep instead of spinning — both
/// happen at epoch boundaries only, never per execution. Capacity 8 is
/// generous: the lag-1 protocol bounds steady-state occupancy to two
/// packets plus the terminal drain.
class ShardPacketRing {
public:
  static constexpr size_t Capacity = 8;

  /// Producer side; blocks while full.
  void push(ShardPacket &&P) {
    while (!tryPush(std::move(P))) {
      std::unique_lock<std::mutex> Lock(WaitMutex);
      WaitCv.wait(Lock, [this] {
        return Tail.load(std::memory_order_relaxed) -
                   Head.load(std::memory_order_acquire) <
               Capacity;
      });
    }
  }

  /// Consumer side; blocks while empty.
  void pop(ShardPacket &P) {
    while (!tryPop(P)) {
      std::unique_lock<std::mutex> Lock(WaitMutex);
      WaitCv.wait(Lock, [this] {
        return Head.load(std::memory_order_relaxed) !=
               Tail.load(std::memory_order_acquire);
      });
    }
  }

  /// Non-blocking pop (the end-of-campaign drain peeks opportunistically
  /// before committing to a blocking wait).
  bool tryPop(ShardPacket &P) {
    size_t T = Tail.load(std::memory_order_acquire);
    size_t H = Head.load(std::memory_order_relaxed);
    if (H == T)
      return false;
    P = std::move(Slots[H % Capacity]);
    Head.store(H + 1, std::memory_order_release);
    notify();
    return true;
  }

private:
  bool tryPush(ShardPacket &&P) {
    size_t H = Head.load(std::memory_order_acquire);
    size_t T = Tail.load(std::memory_order_relaxed);
    if (T - H == Capacity)
      return false;
    Slots[T % Capacity] = std::move(P);
    Tail.store(T + 1, std::memory_order_release);
    notify();
    return true;
  }

  /// Wakes the peer possibly sleeping on the other end. Taking the mutex
  /// before notifying closes the check-then-sleep race: a waiter that
  /// observed the old index either holds the mutex (and will be
  /// notified) or has not re-checked yet (and will see the new index).
  void notify() {
    std::lock_guard<std::mutex> Lock(WaitMutex);
    WaitCv.notify_all();
  }

  ShardPacket Slots[Capacity];
  /// Consumer-owned read index; producer reads it to detect full.
  std::atomic<size_t> Head{0};
  /// Producer-owned write index; consumer reads it to detect empty.
  std::atomic<size_t> Tail{0};
  std::mutex WaitMutex;
  std::condition_variable WaitCv;
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

  /// Number of peers (shards - 1).
  uint32_t peerCount() const;

  /// Publishes \p P to every peer (blocking while a ring is full, which
  /// the lag-1 protocol makes transient). Call with strictly increasing
  /// epochs; the Final packet must be the last.
  void publish(const ShardPacket &P);

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
    /// Ring carrying the peer's packets to this shard.
    ShardPacketRing *In = nullptr;
    /// Ring carrying this shard's packets to the peer.
    ShardPacketRing *Out = nullptr;
    /// Newest epoch consumed from this peer (packets arrive in epoch
    /// order, so this is also a count).
    uint64_t ConsumedEpoch = 0;
    /// The peer's Final packet has been consumed; nothing more will come.
    bool Done = false;
  };

  /// Consumes one packet from \p Peer (blocking) and runs the shared
  /// bookkeeping + \p Handler.
  void consumeOne(PeerState &Peer, const PacketHandler &Handler);

  uint32_t Index = 0;
  std::vector<PeerState> Peers;
};

/// Owns the N*(N-1) rings and N endpoints of one sharded campaign.
/// Construct before the shard threads start; destroy after they join.
class ShardHub {
public:
  explicit ShardHub(uint32_t NumShards);

  uint32_t shardCount() const {
    return static_cast<uint32_t>(Endpoints.size());
  }

  ShardEndpoint &endpoint(uint32_t Shard) { return *Endpoints[Shard]; }

private:
  /// Ring from producer P to consumer C lives at [P * N + C]; the
  /// diagonal is unused. unique_ptrs keep ring addresses stable (rings
  /// hold a mutex and are neither movable nor copyable).
  std::vector<std::unique_ptr<ShardPacketRing>> Rings;
  std::vector<std::unique_ptr<ShardEndpoint>> Endpoints;
};

} // namespace pfuzz

#endif // PFUZZ_CORE_SHARDSYNC_H
