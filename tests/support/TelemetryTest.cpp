//===- tests/support/TelemetryTest.cpp - Metrics registry tests -----------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry substrate on its own: registration is idempotent,
/// histogram samples land in their bit-width buckets with exact sums,
/// per-thread cells consolidate exactly (including under many concurrent
/// writers — the TSan target), snapshot diffs isolate an interval, and
/// the heartbeat emitter writes schema-stable NDJSON with monotone
/// beat/execution columns and exactly one boundary claim per interval.
///
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace pfuzz;

namespace {

/// A temp-file path unique to this test process.
std::string tempPath(const std::string &Tag) {
  return ::testing::TempDir() + "pfuzz_telemetry_" + Tag + "_" +
         std::to_string(::getpid()) + ".ndjson";
}

/// Reads a file's lines (heartbeat records are one JSON object per line).
std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

/// Minimal field scraper: returns the raw token following "key": in a
/// flat one-line JSON object (enough for the schema checks below without
/// a JSON parser dependency).
std::string fieldOf(const std::string &Line, const std::string &Key) {
  std::string Needle = "\"" + Key + "\": ";
  size_t At = Line.find(Needle);
  if (At == std::string::npos)
    return "";
  size_t Start = At + Needle.size();
  size_t End = Line.find_first_of(",}", Start);
  return Line.substr(Start, End - Start);
}

} // namespace

TEST(TelemetryTest, HistogramBucketsByBitWidthWithExactSum) {
#ifdef PFUZZ_NO_TELEMETRY
  GTEST_SKIP() << "registry mutators are compiled out under PFUZZ_NO_TELEMETRY";
#endif
  TelemetryRegistry Reg;
  MetricId H = Reg.histogram("test.hist");
  EXPECT_TRUE(H.valid());
  EXPECT_EQ(Reg.histogram("test.hist").Slot, H.Slot);
  // Bucket index is the value's bit width: 0 -> bucket 0, 1 -> bucket 1,
  // 2 and 3 -> bucket 2, 1000 -> bucket 10.
  for (uint64_t V : {0ull, 1ull, 2ull, 3ull, 1000ull})
    Reg.record(H, V);
  RegistrySnapshot Snap = Reg.snapshot();
  const HistogramData *D = Snap.histogram("test.hist");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Count, 5u);
  EXPECT_EQ(D->Sum, 1006u);
  EXPECT_DOUBLE_EQ(D->mean(), 1006.0 / 5.0);
  EXPECT_EQ(D->Buckets[0], 1u);
  EXPECT_EQ(D->Buckets[1], 1u);
  EXPECT_EQ(D->Buckets[2], 2u);
  EXPECT_EQ(D->Buckets[10], 1u);
}

TEST(TelemetryTest, HistogramClampsOversizedValuesToLastBucket) {
#ifdef PFUZZ_NO_TELEMETRY
  GTEST_SKIP() << "registry mutators are compiled out under PFUZZ_NO_TELEMETRY";
#endif
  TelemetryRegistry Reg;
  MetricId H = Reg.histogram("test.clamp");
  Reg.record(H, UINT64_MAX);
  RegistrySnapshot Snap = Reg.snapshot();
  const HistogramData *D = Snap.histogram("test.clamp");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Buckets[HistogramData::BucketCount - 1], 1u);
  EXPECT_EQ(D->Sum, UINT64_MAX);
}

TEST(TelemetryTest, SnapshotMinusIsolatesAnInterval) {
#ifdef PFUZZ_NO_TELEMETRY
  GTEST_SKIP() << "registry mutators are compiled out under PFUZZ_NO_TELEMETRY";
#endif
  TelemetryRegistry Reg;
  MetricId H = Reg.histogram("test.delta-hist");
  Reg.record(H, 100);
  RegistrySnapshot Before = Reg.snapshot();
  Reg.record(H, 200);
  RegistrySnapshot Delta = Reg.snapshot().minus(Before);
  const HistogramData *D = Delta.histogram("test.delta-hist");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Count, 1u);
  EXPECT_EQ(D->Sum, 200u);
  EXPECT_EQ(D->Buckets[7], 0u); // 100 came before the interval
  EXPECT_EQ(D->Buckets[8], 1u);
}

TEST(TelemetryTest, ConcurrentCountersConsolidateExactly) {
#ifdef PFUZZ_NO_TELEMETRY
  GTEST_SKIP() << "registry mutators are compiled out under PFUZZ_NO_TELEMETRY";
#endif
  // Many threads hammer the same histogram's count, sum and bucket
  // counters through their per-thread shards; after joining, a snapshot
  // must account for every sample. Run under TSan this is the registry's
  // data-race pin: the hot path is relaxed atomics on per-thread cells,
  // consolidation reads them all.
  TelemetryRegistry Reg;
  MetricId H = Reg.histogram("test.hammer-hist");
  const int Threads = 8;
  const uint64_t PerThread = 50000;
  std::vector<std::thread> Pool;
  for (int T = 0; T != Threads; ++T)
    Pool.emplace_back([&Reg, H] {
      for (uint64_t I = 0; I != PerThread; ++I)
        Reg.record(H, 1);
    });
  for (std::thread &T : Pool)
    T.join();
  RegistrySnapshot Snap = Reg.snapshot();
  const uint64_t Total = static_cast<uint64_t>(Threads) * PerThread;
  const HistogramData *D = Snap.histogram("test.hammer-hist");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Count, Total);
  EXPECT_EQ(D->Sum, Total);
  EXPECT_EQ(D->Buckets[1], Total);
}

TEST(TelemetryTest, SpanRecordsIntoGlobalRegistry) {
  RegistrySnapshot Before = TelemetryRegistry::global().snapshot();
  {
    TELEMETRY_SPAN("unit-test-span");
  }
  {
    TELEMETRY_SPAN("unit-test-span");
  }
  RegistrySnapshot Delta =
      TelemetryRegistry::global().snapshot().minus(Before);
  const HistogramData *D = Delta.histogram("span.unit-test-span");
#ifndef PFUZZ_NO_TELEMETRY
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Count, 2u);
#else
  EXPECT_EQ(D, nullptr);
#endif
}

TEST(TelemetryTest, HeartbeatTickClaimsEachBoundaryOnce) {
  HeartbeatEmitter HB;
  EXPECT_FALSE(HB.enabled());
  EXPECT_FALSE(HB.tick()); // disarmed: never claims
  std::string Path = tempPath("tick");
  ASSERT_TRUE(HB.open(Path, 10));
  uint64_t Claims = 0;
  for (int I = 0; I != 35; ++I)
    Claims += HB.tick() ? 1 : 0;
  EXPECT_EQ(Claims, 3u); // boundaries at 10, 20, 30
  EXPECT_TRUE(HB.close());
  std::remove(Path.c_str());
}

TEST(TelemetryTest, HeartbeatConcurrentTicksClaimExactBoundaries) {
  // The boundary claim is a fetch_add race by design: whichever thread's
  // increment lands on a multiple of N claims it. Total claims across
  // all threads must be exactly ticks / N.
  HeartbeatEmitter HB;
  std::string Path = tempPath("conc");
  ASSERT_TRUE(HB.open(Path, 64));
  const int Threads = 4;
  const uint64_t PerThread = 6400;
  std::vector<uint64_t> Claims(Threads, 0);
  std::vector<std::thread> Pool;
  for (int T = 0; T != Threads; ++T)
    Pool.emplace_back([&HB, &Claims, T] {
      for (uint64_t I = 0; I != PerThread; ++I)
        Claims[static_cast<size_t>(T)] += HB.tick() ? 1 : 0;
    });
  for (std::thread &T : Pool)
    T.join();
  uint64_t Total = 0;
  for (uint64_t C : Claims)
    Total += C;
  EXPECT_EQ(Total, static_cast<uint64_t>(Threads) * PerThread / 64);
  EXPECT_TRUE(HB.close());
  std::remove(Path.c_str());
}

TEST(TelemetryTest, HeartbeatRecordsCarryStableSchemaAndMonotoneColumns) {
  HeartbeatEmitter HB;
  std::string Path = tempPath("schema");
  ASSERT_TRUE(HB.open(Path, 100));
  EXPECT_EQ(HB.interval(), 100u);
  for (int Beat = 0; Beat != 5; ++Beat) {
    for (int I = 0; I != 100; ++I)
      if (HB.tick()) {
        HeartbeatSample S;
        S.Shard = 2;
        S.Frontier = static_cast<uint64_t>(10 * (Beat + 1));
        S.QueueBytes = 4096;
        HB.emit(S);
      }
  }
  EXPECT_EQ(HB.beats(), 5u);
  ASSERT_TRUE(HB.close());
  std::vector<std::string> Lines = readLines(Path);
  ASSERT_EQ(Lines.size(), 5u);
  const char *Keys[] = {"ts_ms",  "beat",     "shard",      "executions",
                        "wall_s", "execs_per_sec", "frontier", "queue_bytes"};
  uint64_t LastBeat = 0, LastExecs = 0;
  for (const std::string &Line : Lines) {
    // Every record is a one-line object carrying the full fixed key set.
    EXPECT_EQ(Line.front(), '{');
    EXPECT_EQ(Line.back(), '}');
    for (const char *Key : Keys)
      EXPECT_NE(fieldOf(Line, Key), "") << Key << " missing in " << Line;
    uint64_t Beat = std::stoull(fieldOf(Line, "beat"));
    uint64_t Execs = std::stoull(fieldOf(Line, "executions"));
    EXPECT_GT(Beat, LastBeat);
    EXPECT_GT(Execs, LastExecs);
    LastBeat = Beat;
    LastExecs = Execs;
    EXPECT_EQ(fieldOf(Line, "shard"), "2");
    EXPECT_EQ(fieldOf(Line, "queue_bytes"), "4096");
  }
  std::remove(Path.c_str());
}

TEST(TelemetryTest, HeartbeatOpenFailureStaysDisabled) {
  HeartbeatEmitter HB;
  EXPECT_FALSE(HB.open("/nonexistent-dir-zzz/hb.ndjson", 10));
  EXPECT_FALSE(HB.enabled());
  EXPECT_FALSE(HB.tick());
  EXPECT_TRUE(HB.close()); // closing a never-opened emitter is clean
}
