//===- baselines/KleeStateStore.h - KLEE baseline state store ----*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The KLEE baseline's pending states and the set of every state it ever
/// queued, with each state's bytes stored once.
///
/// - The bytes live in an append-only arena; a state is an (offset,
///   length) reference into it. A state stays in the arena after it is
///   popped, because the seen set still refers to it.
/// - The seen set is an open-addressing table of (hash, reference) slots
///   with linear probing. A hash match compares the bytes too, so the set
///   is exact even when hashes collide.
/// - The queue is a deque of references; push() puts a state at its
///   front or its back.
/// - push() probes the set with the caller's bytes and appends them to
///   the arena only when they are new, so a duplicate fork stores
///   nothing.
///
/// The hash is a template parameter so that a test can make every key
/// collide; the campaign uses std::hash.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_BASELINES_KLEESTATESTORE_H
#define PFUZZ_BASELINES_KLEESTATESTORE_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pfuzz {

template <typename HashFn = std::hash<std::string_view>>
class KleeStateStore {
public:
  /// A store that refuses states longer than \p MaxLen bytes, and any
  /// state while \p MaxPending states are queued.
  KleeStateStore(uint32_t MaxLen, size_t MaxPending)
      : MaxLen(MaxLen), MaxPending(MaxPending) {}

  /// Queues \p Bytes at the front or the back unless it is too long, the
  /// queue is full, or it was queued before. A refused state is not
  /// marked as seen. Returns whether \p Bytes was queued.
  bool push(std::string_view Bytes, bool Front) {
    if (Bytes.size() > MaxLen || full())
      return false;
    uint64_t Hash = static_cast<uint64_t>(HashFn()(Bytes));
    if (Hash == 0) // 0 marks an empty slot
      Hash = 1;
    if ((Seen + 1) * 4 > Slots.size() * 3)
      grow();
    size_t I = probe(Hash, Bytes);
    if (Slots[I].Hash != 0)
      return false;
    Ref R{Arena.size(), static_cast<uint32_t>(Bytes.size())};
    Arena.append(Bytes);
    Slots[I] = {Hash, R};
    ++Seen;
    if (Front)
      Queue.push_front(R);
    else
      Queue.push_back(R);
    return true;
  }

  bool empty() const { return Queue.empty(); }
  /// Whether push() refuses every state until the next pop().
  bool full() const { return Queue.size() >= MaxPending; }
  /// States ever queued.
  size_t seen() const { return Seen; }

  /// Copies the state at the head of the queue into \p Out and dequeues
  /// it. The queue must not be empty.
  void pop(std::string &Out) {
    Ref R = Queue.front();
    Queue.pop_front();
    Out.assign(Arena, R.Offset, R.Len);
  }

private:
  struct Ref {
    uint64_t Offset = 0;
    uint32_t Len = 0;
  };
  struct Slot {
    uint64_t Hash = 0;
    Ref State;
  };

  std::string_view bytesOf(Ref R) const {
    return std::string_view(Arena).substr(R.Offset, R.Len);
  }

  /// Where \p Hash's probe starts. The table must not be empty.
  size_t home(uint64_t Hash) const {
    return static_cast<size_t>((Hash * 0x9E3779B97F4A7C15ULL) >> Shift);
  }

  /// The slot holding \p Bytes, or the empty slot where it would go. The
  /// load limit always leaves an empty slot, so the probe terminates.
  size_t probe(uint64_t Hash, std::string_view Bytes) const {
    size_t Mask = Slots.size() - 1;
    size_t I = home(Hash);
    while (Slots[I].Hash != 0 &&
           (Slots[I].Hash != Hash || bytesOf(Slots[I].State) != Bytes))
      I = (I + 1) & Mask;
    return I;
  }

  /// Doubles the table and re-places every slot by its stored hash; the
  /// keys are distinct, so no bytes are compared.
  void grow() {
    std::vector<Slot> Old = std::exchange(
        Slots, std::vector<Slot>(std::max<size_t>(16, Slots.size() * 2)));
    Shift = 64 - std::countr_zero(Slots.size());
    size_t Mask = Slots.size() - 1;
    for (const Slot &S : Old) {
      if (S.Hash == 0)
        continue;
      size_t I = home(S.Hash);
      while (Slots[I].Hash != 0)
        I = (I + 1) & Mask;
      Slots[I] = S;
    }
  }

  uint32_t MaxLen;
  size_t MaxPending;
  std::string Arena;
  std::vector<Slot> Slots;
  /// 64 - log2(capacity): the Fibonacci product's top bits index the table.
  unsigned Shift = 64;
  size_t Seen = 0;
  std::deque<Ref> Queue;
};

} // namespace pfuzz

#endif // PFUZZ_BASELINES_KLEESTATESTORE_H
