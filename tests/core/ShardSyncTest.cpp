//===- tests/core/ShardSyncTest.cpp - Shard exchange-layer tests ----------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shard synchronization layer on its own, without a campaign on top:
/// publishing never waits for a consumer, endpoints deliver every
/// published packet exactly once and in epoch order (the published ==
/// merged ledger), collectThrough enforces the lag-1 epoch discipline
/// across unevenly paced producers, and the terminal Final-then-drain
/// handshake lets shards with different lifetimes all terminate with
/// balanced books. ctest runs these tests under a timeout, so a publish
/// or drain that blocks for good fails instead of hanging the suite.
///
//===----------------------------------------------------------------------===//

#include "core/ShardSync.h"

#include <gtest/gtest.h>

#include <thread>

using namespace pfuzz;

namespace {

ShardPacket makePacket(uint64_t Epoch, std::vector<uint32_t> Branches = {},
                       bool Final = false) {
  ShardPacket P;
  P.Epoch = Epoch;
  P.Final = Final;
  P.Branches = std::move(Branches);
  return P;
}

} // namespace

TEST(ShardSyncTest, PublishNeverBlocksAndDrainDeliversInOrder) {
  // One shard publishes a whole campaign's packets plus its Final while
  // its peer consumes nothing; every publish must return at once. The
  // peer's drain then receives all of them in epoch order.
  ShardHub Hub(2);
  ShardEndpoint &Producer = Hub.endpoint(1);
  ShardEndpoint &Consumer = Hub.endpoint(0);
  const uint64_t Epochs = 40;
  for (uint64_t E = 1; E <= Epochs; ++E) {
    ShardPacket P = makePacket(E, {static_cast<uint32_t>(E)});
    P.HasCandidate = E % 2 == 0;
    P.CandidateBytes.assign(static_cast<size_t>(E), 'x');
    Producer.publish(std::move(P));
  }
  Producer.publish(makePacket(Epochs + 1, {}, /*Final=*/true));
  EXPECT_EQ(Producer.Stats.SyncPoints, Epochs + 1);
  EXPECT_EQ(Producer.Stats.DeltasPublished, Epochs + 1);
  EXPECT_EQ(Producer.Stats.MigrationsOffered, Epochs / 2);

  Consumer.publish(makePacket(1, {}, /*Final=*/true));
  uint64_t Next = 1;
  Consumer.drainAll([&](const ShardPacket &P) {
    EXPECT_EQ(P.Epoch, Next);
    EXPECT_EQ(P.Final, Next == Epochs + 1);
    if (!P.Final) {
      EXPECT_EQ(P.Branches, std::vector<uint32_t>{static_cast<uint32_t>(Next)});
      EXPECT_EQ(P.CandidateBytes.size(), Next);
    }
    if (P.HasCandidate)
      ++Consumer.Stats.MigrationsRejected; // late arrivals are rejects
    ++Next;
  });
  EXPECT_EQ(Next, Epochs + 2);
  Producer.drainAll([](const ShardPacket &P) { EXPECT_TRUE(P.Final); });

  uint64_t Published = 0, Merged = 0, Offered = 0, Resolved = 0;
  for (uint32_t I = 0; I != 2; ++I) {
    const ShardStats &St = Hub.endpoint(I).Stats;
    Published += St.DeltasPublished;
    Merged += St.DeltasMerged;
    Offered += St.MigrationsOffered;
    Resolved += St.MigrationsAccepted + St.MigrationsRejected;
  }
  EXPECT_EQ(Published, Epochs + 2);
  EXPECT_EQ(Published, Merged);
  EXPECT_EQ(Resolved, Offered);
}

TEST(ShardSyncTest, TwoEndpointsExchangeWithBalancedLedger) {
  ShardHub Hub(2);
  const int Epochs = 20;
  auto ShardLoop = [&Hub](uint32_t Index) {
    ShardEndpoint &Self = Hub.endpoint(Index);
    std::vector<uint64_t> Seen;
    for (uint64_t E = 1; E <= Epochs; ++E) {
      Self.publish(makePacket(E, {static_cast<uint32_t>(Index * 1000 + E)}));
      Self.collectThrough(E - 1, [&Seen](const ShardPacket &P) {
        Seen.push_back(P.Epoch);
      });
    }
    ShardPacket Final = makePacket(Epochs + 1, {}, /*Final=*/true);
    Self.publish(Final);
    Self.drainAll(
        [&Seen](const ShardPacket &P) { Seen.push_back(P.Epoch); });
    // In-order, gapless delivery from the single peer.
    ASSERT_EQ(Seen.size(), static_cast<size_t>(Epochs + 1));
    for (size_t I = 0; I != Seen.size(); ++I)
      EXPECT_EQ(Seen[I], I + 1);
  };
  std::thread Other([&ShardLoop] { ShardLoop(1); });
  ShardLoop(0);
  Other.join();
  uint64_t Published = 0, Merged = 0;
  for (uint32_t I = 0; I != 2; ++I) {
    Published += Hub.endpoint(I).Stats.DeltasPublished;
    Merged += Hub.endpoint(I).Stats.DeltasMerged;
    EXPECT_EQ(Hub.endpoint(I).Stats.SyncPoints,
              static_cast<uint64_t>(Epochs + 1));
    // Lag-1 discipline: no merge point ever waited on more than one
    // outstanding epoch.
    EXPECT_LE(Hub.endpoint(I).Stats.MaxFrontierLag, 1u);
  }
  EXPECT_EQ(Published, Merged);
  EXPECT_EQ(Published, 2u * (Epochs + 1));
}

TEST(ShardSyncTest, ThreeShardsWithUnevenLifetimes) {
  // Shards run different epoch counts; the Final/drain handshake must
  // still deliver every packet exactly once and let everyone terminate.
  ShardHub Hub(3);
  const uint64_t EpochsFor[3] = {3, 10, 6};
  auto ShardLoop = [&](uint32_t Index) {
    ShardEndpoint &Self = Hub.endpoint(Index);
    uint64_t E = 1;
    for (; E <= EpochsFor[Index]; ++E) {
      Self.publish(makePacket(E));
      Self.collectThrough(E - 1, [](const ShardPacket &) {});
    }
    Self.publish(makePacket(E, {}, /*Final=*/true));
    Self.drainAll([](const ShardPacket &) {});
  };
  std::thread T1([&] { ShardLoop(1); });
  std::thread T2([&] { ShardLoop(2); });
  ShardLoop(0);
  T1.join();
  T2.join();
  uint64_t Published = 0, Merged = 0, Expected = 0;
  for (uint32_t I = 0; I != 3; ++I) {
    Published += Hub.endpoint(I).Stats.DeltasPublished;
    Merged += Hub.endpoint(I).Stats.DeltasMerged;
    Expected += 2 * (EpochsFor[I] + 1); // every epoch + Final, to 2 peers
  }
  EXPECT_EQ(Published, Merged);
  EXPECT_EQ(Published, Expected);
}

TEST(ShardSyncTest, DrainRacesInFlightFinalPackets) {
  // One shard publishes a burst ending in Final while its peer is
  // already inside drainAll: the drain keeps finding an empty FIFO
  // mid-burst and must wait until the Final packet itself is consumed —
  // never terminate on a FIFO that merely hasn't received Final yet.
  // Repeated so the drain catches up with the burst at different points.
  for (int Round = 0; Round != 50; ++Round) {
    ShardHub Hub(2);
    const uint64_t Epochs = 12;
    std::thread Publisher([&Hub] {
      ShardEndpoint &Self = Hub.endpoint(1);
      for (uint64_t E = 1; E <= Epochs; ++E)
        Self.publish(makePacket(E, {static_cast<uint32_t>(E)}));
      Self.publish(makePacket(Epochs + 1, {}, /*Final=*/true));
      Self.drainAll([](const ShardPacket &) {});
    });
    ShardEndpoint &Drainer = Hub.endpoint(0);
    Drainer.publish(makePacket(1, {}, /*Final=*/true));
    uint64_t Consumed = 0;
    bool SawFinal = false;
    Drainer.drainAll([&](const ShardPacket &P) {
      ++Consumed;
      SawFinal |= P.Final;
    });
    Publisher.join();
    EXPECT_TRUE(SawFinal);
    EXPECT_EQ(Consumed, Epochs + 1);
    EXPECT_EQ(Drainer.Stats.DeltasMerged, Epochs + 1);
    EXPECT_EQ(Hub.endpoint(1).Stats.DeltasMerged, 1u);
  }
}

TEST(ShardSyncTest, MigrationLedgerBalances) {
  ShardHub Hub(2);
  const int Epochs = 5;
  auto ShardLoop = [&Hub](uint32_t Index) {
    ShardEndpoint &Self = Hub.endpoint(Index);
    for (uint64_t E = 1; E <= Epochs; ++E) {
      ShardPacket P = makePacket(E);
      P.HasCandidate = true;
      P.CandidateBytes = "abc";
      P.CandidateHash = Index * 100 + E;
      Self.publish(P);
      Self.collectThrough(E - 1, [&Self](const ShardPacket &In) {
        if (!In.HasCandidate)
          return;
        // Accept even hashes, reject odd ones — any deterministic split.
        if (In.CandidateHash % 2 == 0)
          ++Self.Stats.MigrationsAccepted;
        else
          ++Self.Stats.MigrationsRejected;
      });
    }
    Self.publish(makePacket(Epochs + 1, {}, /*Final=*/true));
    Self.drainAll([&Self](const ShardPacket &In) {
      if (In.HasCandidate)
        ++Self.Stats.MigrationsRejected; // late arrivals are rejects
    });
  };
  std::thread Other([&ShardLoop] { ShardLoop(1); });
  ShardLoop(0);
  Other.join();
  uint64_t Offered = 0, Accepted = 0, Rejected = 0;
  for (uint32_t I = 0; I != 2; ++I) {
    Offered += Hub.endpoint(I).Stats.MigrationsOffered;
    Accepted += Hub.endpoint(I).Stats.MigrationsAccepted;
    Rejected += Hub.endpoint(I).Stats.MigrationsRejected;
  }
  EXPECT_EQ(Offered, 2u * Epochs);
  EXPECT_EQ(Accepted + Rejected, Offered);
}
