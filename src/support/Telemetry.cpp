//===- support/Telemetry.cpp - Process-wide metrics registry --------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include <cstdlib>

using namespace pfuzz;

RegistrySnapshot RegistrySnapshot::minus(const RegistrySnapshot &Base) const {
  auto Sub = [](uint64_t A, uint64_t B) { return A > B ? A - B : 0; };
  RegistrySnapshot Delta;
  for (const auto &[Name, Value] : Counters)
    Delta.Counters[Name] = Sub(Value, Base.counter(Name));
  Delta.Gauges = Gauges;
  for (const auto &[Name, Hist] : Histograms) {
    HistogramData D;
    const HistogramData *B = Base.histogram(Name);
    D.Count = Sub(Hist.Count, B ? B->Count : 0);
    D.Sum = Sub(Hist.Sum, B ? B->Sum : 0);
    for (size_t I = 0; I != HistogramData::BucketCount; ++I)
      D.Buckets[I] = Sub(Hist.Buckets[I], B ? B->Buckets[I] : 0);
    Delta.Histograms[Name] = D;
  }
  return Delta;
}

namespace {
/// Never recycled, so a thread-local shard cache entry left over from a
/// destroyed registry can never match a live one.
std::atomic<uint64_t> NextRegistryId{1};
} // namespace

TelemetryRegistry::TelemetryRegistry()
    : UniqueId(NextRegistryId.fetch_add(1, std::memory_order_relaxed)) {}

TelemetryRegistry::~TelemetryRegistry() = default;

MetricId TelemetryRegistry::registerMetric(const std::string &Name, Kind K,
                                           size_t Cells) {
  std::lock_guard<std::mutex> Lock(RegMutex);
  auto It = ByName.find(Name);
  if (It != ByName.end()) {
    if (It->second.first != K) {
      std::fprintf(stderr,
                   "telemetry: metric '%s' re-registered under a different "
                   "kind\n",
                   Name.c_str());
      std::abort();
    }
    return It->second.second;
  }
  size_t Slot;
  if (K == Kind::Gauge) {
    if (NextGauge + 1 > MaxGauges) {
      std::fprintf(stderr, "telemetry: gauge capacity exhausted at '%s'\n",
                   Name.c_str());
      std::abort();
    }
    Slot = NextGauge;
    NextGauge += 1;
  } else {
    if (NextCell + Cells > MaxCells) {
      std::fprintf(stderr, "telemetry: cell capacity exhausted at '%s'\n",
                   Name.c_str());
      std::abort();
    }
    Slot = NextCell;
    NextCell += Cells;
  }
  MetricId Id{static_cast<uint32_t>(Slot)};
  ByName.emplace(Name, std::make_pair(K, Id));
  return Id;
}

MetricId TelemetryRegistry::counter(const std::string &Name) {
  return registerMetric(Name, Kind::Counter, 1);
}

MetricId TelemetryRegistry::gauge(const std::string &Name) {
  return registerMetric(Name, Kind::Gauge, 1);
}

MetricId TelemetryRegistry::histogram(const std::string &Name) {
  return registerMetric(Name, Kind::Histogram, HistogramData::BucketCount + 2);
}

TelemetryRegistry::Shard *TelemetryRegistry::localShard() {
  // Single-digit registries per process (the global one plus test
  // locals), so a tiny linear cache beats a hash map and never
  // allocates on the hot path after a thread's first touch.
  thread_local std::vector<std::pair<uint64_t, Shard *>> Cache;
  for (const auto &[Id, S] : Cache)
    if (Id == UniqueId)
      return S;
  Shard *S;
  {
    std::lock_guard<std::mutex> Lock(RegMutex);
    Shards.push_back(std::make_unique<Shard>());
    S = Shards.back().get();
  }
  Cache.emplace_back(UniqueId, S);
  return S;
}

RegistrySnapshot TelemetryRegistry::snapshot() const {
  RegistrySnapshot Snap;
  std::lock_guard<std::mutex> Lock(RegMutex);
  auto SumCells = [this](size_t Slot) {
    uint64_t Total = 0;
    for (const auto &S : Shards)
      Total += S->Cells[Slot].load(std::memory_order_relaxed);
    return Total;
  };
  for (const auto &[Name, Entry] : ByName) {
    const auto &[K, Id] = Entry;
    switch (K) {
    case Kind::Counter:
      Snap.Counters[Name] = SumCells(Id.Slot);
      break;
    case Kind::Gauge:
      Snap.Gauges[Name] = GaugeCells[Id.Slot].load(std::memory_order_relaxed);
      break;
    case Kind::Histogram: {
      HistogramData D;
      for (size_t I = 0; I != HistogramData::BucketCount; ++I)
        D.Buckets[I] = SumCells(Id.Slot + I);
      D.Sum = SumCells(Id.Slot + HistogramData::BucketCount);
      D.Count = SumCells(Id.Slot + HistogramData::BucketCount + 1);
      Snap.Histograms[Name] = D;
      break;
    }
    }
  }
  return Snap;
}

TelemetryRegistry &TelemetryRegistry::global() {
  // Leaked: spans may fire from threads that outlive main's static
  // destructors.
  static TelemetryRegistry *Global = new TelemetryRegistry();
  return *Global;
}

bool HeartbeatEmitter::open(const std::string &Path, uint64_t Every) {
  close();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (F == nullptr)
    return false;
  std::lock_guard<std::mutex> Lock(EmitMutex);
  Out = F;
  EveryN = Every == 0 ? 1 : Every;
  Execs.store(0, std::memory_order_relaxed);
  Beat = 0;
  LastExecs = 0;
  StartTime = LastTime = std::chrono::steady_clock::now();
  WriteError = false;
  Armed.store(true, std::memory_order_release);
  return true;
}

void HeartbeatEmitter::emit(const HeartbeatSample &S) {
  std::lock_guard<std::mutex> Lock(EmitMutex);
  if (Out == nullptr)
    return;
  // Re-read the shared counter under the lock: whatever interleaving of
  // shard ticks happened, successive records see a non-decreasing count.
  uint64_t ExecsNow = Execs.load(std::memory_order_relaxed);
  auto Now = std::chrono::steady_clock::now();
  double WallS = std::chrono::duration<double>(Now - StartTime).count();
  double IntervalS = std::chrono::duration<double>(Now - LastTime).count();
  double Rate = IntervalS > 0
                    ? static_cast<double>(ExecsNow - LastExecs) / IntervalS
                    : 0;
  uint64_t TsMs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  ++Beat;
  int Rc = std::fprintf(
      Out,
      "{\"ts_ms\": %llu, \"beat\": %llu, \"shard\": %u,"
      " \"executions\": %llu, \"wall_s\": %.3f, \"execs_per_sec\": %.1f,"
      " \"frontier\": %llu, \"queue_bytes\": %llu,"
      " \"run_cache_hit_rate\": %.4f, \"resume_hit_rate\": %.4f,"
      " \"shard_lag\": %llu}\n",
      static_cast<unsigned long long>(TsMs),
      static_cast<unsigned long long>(Beat), S.Shard,
      static_cast<unsigned long long>(ExecsNow), WallS, Rate,
      static_cast<unsigned long long>(S.Frontier),
      static_cast<unsigned long long>(S.QueueBytes), S.RunCacheHitRate,
      S.ResumeHitRate,
      static_cast<unsigned long long>(S.ShardLag));
  if (Rc < 0 || std::fflush(Out) != 0)
    WriteError = true;
  LastExecs = ExecsNow;
  LastTime = Now;
}

uint64_t HeartbeatEmitter::beats() const {
  std::lock_guard<std::mutex> Lock(EmitMutex);
  return Beat;
}

bool HeartbeatEmitter::close() {
  Armed.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> Lock(EmitMutex);
  if (Out == nullptr)
    return !WriteError;
  if (std::fclose(Out) != 0)
    WriteError = true;
  Out = nullptr;
  return !WriteError;
}
