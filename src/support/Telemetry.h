//===- support/Telemetry.h - Process-wide metrics registry ------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability substrate of a production campaign: one process-wide
/// registry of named monotonic counters, gauges, and fixed-bucket
/// histograms, plus the heartbeat emitter that streams epoch-stamped
/// NDJSON records while a campaign runs.
///
/// Hot-path discipline: counter increments and histogram samples land in
/// per-worker shards of relaxed atomics — no locks, no allocation after a
/// thread's first touch — and are only consolidated when someone takes a
/// snapshot. Gauges are single last-writer-wins atomics. Registration
/// (name -> MetricId) takes a mutex and is meant to happen once per call
/// site, cached in a static local (see TELEMETRY_SPAN).
///
/// Telemetry is read-only with respect to fuzzing decisions: nothing in
/// this file feeds back into the search, so FuzzReports are byte-identical
/// with telemetry on, off, or compiled out. Defining PFUZZ_NO_TELEMETRY
/// turns TELEMETRY_SPAN into a no-op statement and the registry's
/// hot-path mutators into empty inlines; the heartbeat emitter (explicit
/// opt-in via --telemetry, off the per-execution path beyond one branch
/// and one relaxed increment) stays functional either way.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_SUPPORT_TELEMETRY_H
#define PFUZZ_SUPPORT_TELEMETRY_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pfuzz {

/// Opaque handle to a registered metric. Cheap to copy; obtained once per
/// call site from TelemetryRegistry::counter/gauge/histogram and reused
/// for every update.
struct MetricId {
  uint32_t Slot = UINT32_MAX;
  bool valid() const { return Slot != UINT32_MAX; }
};

/// Consolidated histogram contents: power-of-two value buckets (bucket I
/// counts samples with bit_width I, i.e. in [2^(I-1), 2^I)), plus exact
/// sum and count so snapshots can report true means.
struct HistogramData {
  static constexpr size_t BucketCount = 40;

  uint64_t Count = 0;
  uint64_t Sum = 0;
  std::array<uint64_t, BucketCount> Buckets{};

  double mean() const {
    return Count == 0 ? 0 : static_cast<double>(Sum) / static_cast<double>(Count);
  }

  void accumulate(const HistogramData &Other) {
    Count += Other.Count;
    Sum += Other.Sum;
    for (size_t I = 0; I != BucketCount; ++I)
      Buckets[I] += Other.Buckets[I];
  }
};

/// Point-in-time consolidation of a registry: every metric by name.
/// Plain value type so tests can diff two snapshots with minus().
class RegistrySnapshot {
public:
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, uint64_t> Gauges;
  std::map<std::string, HistogramData> Histograms;

  uint64_t counter(const std::string &Name) const {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }

  uint64_t gauge(const std::string &Name) const {
    auto It = Gauges.find(Name);
    return It == Gauges.end() ? 0 : It->second;
  }

  const HistogramData *histogram(const std::string &Name) const {
    auto It = Histograms.find(Name);
    return It == Histograms.end() ? nullptr : &It->second;
  }

  /// Per-interval delta against an earlier snapshot of the same registry:
  /// counters and histograms subtract (saturating at 0 per field); gauges
  /// keep this snapshot's value. Lets tests isolate one campaign's spans
  /// on the process-global registry.
  RegistrySnapshot minus(const RegistrySnapshot &Base) const;
};

/// Process-wide metrics registry. All methods are thread-safe;
/// add/set/record are lock-free after a thread's first touch.
class TelemetryRegistry {
public:
  /// Total metric cells (counters cost 1, histograms BucketCount + 2)
  /// one registry can hold. Registration past the cap aborts — the
  /// metric namespace is static, sized by call sites, not by data.
  static constexpr size_t MaxCells = 1024;
  /// Gauge slots per registry (gauges live outside the sharded cells).
  static constexpr size_t MaxGauges = 64;

  TelemetryRegistry();
  ~TelemetryRegistry();
  TelemetryRegistry(const TelemetryRegistry &) = delete;
  TelemetryRegistry &operator=(const TelemetryRegistry &) = delete;

  /// Registers (or looks up) a monotonic counter. Idempotent per name;
  /// re-registering a name under a different kind aborts.
  MetricId counter(const std::string &Name);
  /// Registers (or looks up) a last-writer-wins gauge.
  MetricId gauge(const std::string &Name);
  /// Registers (or looks up) a fixed-bucket histogram.
  MetricId histogram(const std::string &Name);

  /// Adds \p Delta to a counter on this thread's shard.
  void add(MetricId Id, uint64_t Delta = 1) {
#ifndef PFUZZ_NO_TELEMETRY
    if (Id.valid())
      localShard()->Cells[Id.Slot].fetch_add(Delta, std::memory_order_relaxed);
#else
    (void)Id;
    (void)Delta;
#endif
  }

  /// Stores \p Value into a gauge (last writer wins).
  void set(MetricId Id, uint64_t Value) {
#ifndef PFUZZ_NO_TELEMETRY
    if (Id.valid())
      GaugeCells[Id.Slot].store(Value, std::memory_order_relaxed);
#else
    (void)Id;
    (void)Value;
#endif
  }

  /// Records one histogram sample on this thread's shard.
  void record(MetricId Id, uint64_t Value) {
#ifndef PFUZZ_NO_TELEMETRY
    if (!Id.valid())
      return;
    size_t Bucket = 0;
    for (uint64_t V = Value; V != 0; V >>= 1)
      ++Bucket;
    if (Bucket >= HistogramData::BucketCount)
      Bucket = HistogramData::BucketCount - 1;
    Shard *S = localShard();
    S->Cells[Id.Slot + Bucket].fetch_add(1, std::memory_order_relaxed);
    S->Cells[Id.Slot + HistogramData::BucketCount].fetch_add(
        Value, std::memory_order_relaxed);
    S->Cells[Id.Slot + HistogramData::BucketCount + 1].fetch_add(
        1, std::memory_order_relaxed);
#else
    (void)Id;
    (void)Value;
#endif
  }

  /// Consolidates every metric: sums counter and histogram cells across
  /// all worker shards, reads gauges. Values written by threads joined
  /// before the call are reflected exactly.
  RegistrySnapshot snapshot() const;

  /// The process-global registry every TELEMETRY_SPAN records into.
  /// Leaked on purpose so worker threads may outlive main's statics.
  static TelemetryRegistry &global();

private:
  enum class Kind { Counter, Gauge, Histogram };

  /// One worker's cells. Fixed-size so a shard never reallocates under a
  /// concurrent snapshot; atomics zero-initialize.
  struct Shard {
    std::array<std::atomic<uint64_t>, MaxCells> Cells{};
  };

  MetricId registerMetric(const std::string &Name, Kind K, size_t Cells);
  Shard *localShard();

  /// Never-reused registry identity; keys the thread-local shard cache so
  /// a stale cache entry from a destroyed registry can't alias a new one.
  const uint64_t UniqueId;

  mutable std::mutex RegMutex;
  std::map<std::string, std::pair<Kind, MetricId>> ByName;
  size_t NextCell = 0;
  size_t NextGauge = 0;
  std::vector<std::unique_ptr<Shard>> Shards;
  std::array<std::atomic<uint64_t>, MaxGauges> GaugeCells{};
};

/// RAII phase timer: records elapsed nanoseconds into a histogram on
/// destruction. Use through TELEMETRY_SPAN, which caches the metric
/// registration in a function-local static.
class TelemetrySpan {
public:
  explicit TelemetrySpan(MetricId Id)
      : Id(Id), Start(std::chrono::steady_clock::now()) {}
  TelemetrySpan(const TelemetrySpan &) = delete;
  TelemetrySpan &operator=(const TelemetrySpan &) = delete;
  ~TelemetrySpan() {
    auto Ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - Start)
                  .count();
    TelemetryRegistry::global().record(
        Id, Ns < 0 ? 0 : static_cast<uint64_t>(Ns));
  }

private:
  MetricId Id;
  std::chrono::steady_clock::time_point Start;
};

#define PFUZZ_TELEMETRY_CONCAT_IMPL(A, B) A##B
#define PFUZZ_TELEMETRY_CONCAT(A, B) PFUZZ_TELEMETRY_CONCAT_IMPL(A, B)

#ifndef PFUZZ_NO_TELEMETRY
/// Times the enclosing scope into the global histogram "span.NAME"
/// (nanoseconds). NAME must be a string literal. Registration runs once
/// per call site (thread-safe static); each execution costs two
/// steady_clock reads and three relaxed increments.
#define TELEMETRY_SPAN(NAME)                                                   \
  static const ::pfuzz::MetricId PFUZZ_TELEMETRY_CONCAT(TelemetrySpanId,       \
                                                        __LINE__) =            \
      ::pfuzz::TelemetryRegistry::global().histogram("span." NAME);            \
  const ::pfuzz::TelemetrySpan PFUZZ_TELEMETRY_CONCAT(TelemetrySpanObj,        \
                                                      __LINE__)(               \
      PFUZZ_TELEMETRY_CONCAT(TelemetrySpanId, __LINE__))
#else
#define TELEMETRY_SPAN(NAME)                                                   \
  do {                                                                         \
  } while (0)
#endif

/// The per-interval fields a campaign samples for one heartbeat record.
/// Everything the emitter can't derive itself (it owns the execution
/// count, timestamps, and rate).
struct HeartbeatSample {
  /// Shard loop that crossed the heartbeat boundary (0 when unsharded).
  uint32_t Shard = 0;
  /// Covered branch outcomes in the sampling shard's frontier.
  uint64_t Frontier = 0;
  /// Candidate-queue bytes currently held by the sampling shard.
  uint64_t QueueBytes = 0;
  /// Worst frontier lag this shard has observed, in sync epochs.
  uint64_t ShardLag = 0;
};

/// Streams one NDJSON record every N executions to a file. Shared by all
/// shard loops of a campaign: each loop ticks the common execution
/// counter; the loop whose tick crosses an interval boundary samples its
/// local state and emits. Records carry a stable key set, a wall-clock
/// epoch timestamp, and a monotone execution count (re-read under the
/// emit lock, so concurrent shard emissions never regress).
class HeartbeatEmitter {
public:
  HeartbeatEmitter() = default;
  ~HeartbeatEmitter() { close(); }
  HeartbeatEmitter(const HeartbeatEmitter &) = delete;
  HeartbeatEmitter &operator=(const HeartbeatEmitter &) = delete;

  /// Opens \p Path for writing and arms the emitter to fire every
  /// \p EveryN executions (clamped to >= 1). Returns false (emitter
  /// stays disabled) when the file cannot be opened.
  bool open(const std::string &Path, uint64_t EveryN);

  bool enabled() const { return Armed.load(std::memory_order_acquire); }
  uint64_t interval() const { return EveryN; }

  /// Counts one execution; returns true when this tick crossed an
  /// interval boundary and the caller should sample + emit. Exactly one
  /// caller claims each boundary. One relaxed increment when enabled.
  bool tick() {
    if (!Armed.load(std::memory_order_acquire))
      return false;
    uint64_t N = Execs.fetch_add(1, std::memory_order_relaxed) + 1;
    return N % EveryN == 0;
  }

  /// Writes one heartbeat record. Thread-safe; callers pass the sample
  /// they gathered from their own shard-local state.
  void emit(const HeartbeatSample &S);

  /// Records emitted so far.
  uint64_t beats() const;

  /// Flushes and closes the stream. Returns false if any write failed.
  bool close();

private:
  std::FILE *Out = nullptr;
  /// Published by open() after the stream is ready, cleared by close()
  /// before teardown, so tick() never touches the mutex or the FILE.
  std::atomic<bool> Armed{false};
  uint64_t EveryN = 1;
  std::atomic<uint64_t> Execs{0};

  mutable std::mutex EmitMutex;
  uint64_t Beat = 0;
  uint64_t LastExecs = 0;
  std::chrono::steady_clock::time_point StartTime;
  std::chrono::steady_clock::time_point LastTime;
  bool WriteError = false;
};

} // namespace pfuzz

#endif // PFUZZ_SUPPORT_TELEMETRY_H
