//===- bench/campaign/TracedSubject.h - Timing subject wrapper --*- C++ -*-===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign benchmark's span source for the `subjects` layer: a
/// Subject that forwards every call to a real subject and times each
/// Subject::run. The benchmark records spans only from its own files,
/// around the calls it makes into each layer, so this wrapper is how the
/// subject-execution share of a campaign is measured without touching
/// the program.
///
/// Runs are counted per thread (a sharded campaign runs one loop per
/// thread) in slots the wrapper owns, and summed by collect() once the
/// campaign has returned and its threads are joined.
///
/// The prefix-resumption engine checkpoints a run's stack, wrapper frame
/// included, and later restores it for a different input. A restored
/// continuation returns through this wrapper's frame without having
/// entered it, so the frame's start time belongs to an earlier run. The
/// entry sequence number tells the two apart: a fresh run is the latest
/// entry on its thread and exits once; a frame whose sequence number has
/// already exited, or was overtaken by a later entry, is a continuation.
/// Continuations are counted, not timed.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_BENCH_CAMPAIGN_TRACEDSUBJECT_H
#define PFUZZ_BENCH_CAMPAIGN_TRACEDSUBJECT_H

#include "subjects/Subject.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace pfuzz::bench {

/// What the wrapper measured over one campaign.
struct SubjectTrace {
  /// Fresh runs, entered and exited through the wrapper: their count,
  /// total nanoseconds and durations in the registry's power-of-two
  /// buckets.
  HistogramData RunNs;
  /// Continuations restored from a checkpoint: counted, not timed.
  uint64_t ResumedRuns = 0;
  /// Input bytes of the fresh runs (ExecutionContext::input()).
  uint64_t Bytes = 0;

  void merge(const SubjectTrace &O) {
    RunNs.accumulate(O.RunNs);
    ResumedRuns += O.ResumedRuns;
    Bytes += O.Bytes;
  }
};

/// Forwards to \p Inner and times Subject::run. One instance per
/// campaign; it must outlive the campaign's threads.
class TracedSubject final : public Subject {
public:
  explicit TracedSubject(const Subject &Inner)
      : Inner(Inner), Id(NextId.fetch_add(1) + 1) {}

  std::string_view name() const override { return Inner.name(); }
  uint32_t numBranchSites() const override { return Inner.numBranchSites(); }

  // Deliberately without `override`: should the program drop
  // Subject::resumeSafe, this stays a plain member and the bench builds.
  bool resumeSafe() const { return Inner.resumeSafe(); }

  int run(ExecutionContext &Ctx) const override {
    const uint64_t Seq = ++slot().Entries;
    const auto Start = std::chrono::steady_clock::now();
    int Code = Inner.run(Ctx);
    const auto End = std::chrono::steady_clock::now();
    // Look the slot up again: a restored continuation's locals are the
    // checkpointing run's, and only the thread-local state is current.
    Slot &S = slot();
    if (Seq == S.Entries && Seq != S.Exited) {
      S.Exited = Seq;
      auto Ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(End - Start);
      uint64_t N = Ns.count() < 0 ? 0 : static_cast<uint64_t>(Ns.count());
      HistogramData &H = S.Trace.RunNs;
      ++H.Buckets[std::min<size_t>(std::bit_width(N),
                                   HistogramData::BucketCount - 1)];
      ++H.Count;
      H.Sum += N;
      S.Trace.Bytes += Ctx.input().size();
    } else {
      ++S.Trace.ResumedRuns;
    }
    return Code;
  }

  /// Sums every thread's slot. Call after the campaign has returned.
  SubjectTrace collect() const {
    std::lock_guard<std::mutex> Lock(SlotsMutex);
    SubjectTrace Sum;
    for (const std::unique_ptr<Slot> &S : Slots)
      Sum.merge(S->Trace);
    return Sum;
  }

private:
  struct Slot {
    uint64_t Entries = 0;
    uint64_t Exited = 0;
    SubjectTrace Trace;
  };

  /// This thread's slot, registered on the thread's first run. The
  /// thread-local cache is keyed by a never-reused wrapper id, so a
  /// stale entry from an earlier campaign's wrapper never aliases.
  Slot &slot() const {
    thread_local uint64_t CachedId = 0;
    thread_local Slot *Cached = nullptr;
    if (CachedId != Id) {
      std::lock_guard<std::mutex> Lock(SlotsMutex);
      Slots.push_back(std::make_unique<Slot>());
      Cached = Slots.back().get();
      CachedId = Id;
    }
    return *Cached;
  }

  const Subject &Inner;
  const uint64_t Id;
  mutable std::mutex SlotsMutex;
  mutable std::vector<std::unique_ptr<Slot>> Slots;

  static inline std::atomic<uint64_t> NextId{0};
};

} // namespace pfuzz::bench

#endif // PFUZZ_BENCH_CAMPAIGN_TRACEDSUBJECT_H
