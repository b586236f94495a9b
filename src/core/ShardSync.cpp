//===- core/ShardSync.cpp - Sharded-campaign synchronization --------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/ShardSync.h"

using namespace pfuzz;

ShardHub::ShardHub(uint32_t NumShards)
    : Mailbox(size_t(NumShards) * NumShards), Endpoints(NumShards) {
  for (uint32_t S = 0; S != NumShards; ++S) {
    ShardEndpoint &E = Endpoints[S];
    E.Hub = this;
    E.Index = S;
    // Peer order is ascending shard index with self skipped — identical
    // on every shard and every run, which keeps the collect order (and
    // therefore every merge interleaving) deterministic.
    for (uint32_t Peer = 0; Peer != NumShards; ++Peer)
      if (Peer != S)
        E.Peers.push_back({Peer});
  }
}

void ShardHub::post(uint32_t Producer, PacketRef P) {
  size_t N = Endpoints.size();
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (size_t C = 0; C != N; ++C)
      if (C != Producer)
        Mailbox[C * N + Producer].push_back(P);
  }
  Posted.notify_all();
}

ShardHub::PacketRef ShardHub::take(uint32_t Consumer, uint32_t Producer) {
  std::unique_lock<std::mutex> Lock(Mutex);
  std::deque<PacketRef> &In = Mailbox[Consumer * Endpoints.size() + Producer];
  Posted.wait(Lock, [&In] { return !In.empty(); });
  PacketRef P = std::move(In.front());
  In.pop_front();
  return P;
}

void ShardEndpoint::publish(ShardPacket P) {
  uint64_t Receivers = Peers.size();
  ++Stats.SyncPoints;
  Stats.DeltasPublished += Receivers;
  if (P.HasCandidate)
    Stats.MigrationsOffered += Receivers;
  Hub->post(Index, std::make_shared<const ShardPacket>(std::move(P)));
}

void ShardEndpoint::consumeOne(PeerState &Peer, const PacketHandler &Handler) {
  ShardHub::PacketRef P = Hub->take(Index, Peer.Shard);
  ++Stats.DeltasMerged;
  Peer.ConsumedEpoch = P->Epoch;
  if (P->Final)
    Peer.Done = true;
  Handler(*P);
}

void ShardEndpoint::collectThrough(uint64_t Through,
                                   const PacketHandler &Handler) {
  for (PeerState &Peer : Peers) {
    while (!Peer.Done && Peer.ConsumedEpoch < Through)
      consumeOne(Peer, Handler);
    // Frontier lag at this merge point: how far the joint frontier this
    // shard sees trails its own position. Through is own epoch - 1, so
    // steady state is a lag of 1; a finished peer's lag stops being
    // meaningful and is not counted.
    if (!Peer.Done && Through + 1 > Peer.ConsumedEpoch) {
      uint64_t Lag = Through + 1 - Peer.ConsumedEpoch;
      if (Lag > Stats.MaxFrontierLag)
        Stats.MaxFrontierLag = Lag;
    }
  }
}

void ShardEndpoint::drainAll(const PacketHandler &Handler) {
  for (PeerState &Peer : Peers)
    while (!Peer.Done)
      consumeOne(Peer, Handler);
}
