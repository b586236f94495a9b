//===- support/FlatHashMap.h - Open-addressing table for hash keys -*- C++ -*-//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat hash table keyed by 64-bit hashes. The campaign's dedup set,
/// path counts and requeue counts are all keyed by FNV-1a hashes, so the
/// key needs no hashing of its own and no node: every entry is one slot
/// of a single array.
///
/// - Linear probing over a power-of-two capacity; the home slot is the
///   top bits of a Fibonacci multiply, which spreads the key's high bits
///   as well as its low ones.
/// - Key 0 marks an empty slot, so a real key 0 lives in a side slot.
/// - The array doubles before an insert would take the load past 3/4.
///   A 1/2 limit would buy shorter probes by doubling a million-key set
///   one step earlier, i.e. with twice the memory.
/// - FlatHashSet is the map with an empty value, so a set slot is the
///   8-byte key alone.
///
/// There is no single-key erase: the campaign only clears a table or
/// rebuilds it through retainIf, which keeps the probe chains gap-free
/// without tombstones.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_SUPPORT_FLATHASHMAP_H
#define PFUZZ_SUPPORT_FLATHASHMAP_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace pfuzz {

/// Open-addressing map from a 64-bit hash key to a \p ValueT.
template <typename ValueT> class FlatHashMap {
public:
  size_t size() const { return Used + (HasZero ? 1 : 0); }
  /// Slots in the array (0 before the first insert).
  size_t capacity() const { return Slots.size(); }

  /// The value of \p Key, or null when absent. Valid until the next
  /// insert, clear or retainIf.
  const ValueT *find(uint64_t Key) const {
    if (Key == 0)
      return HasZero ? &ZeroValue : nullptr;
    if (Slots.empty())
      return nullptr;
    const Slot &S = Slots[probe(Key)];
    return S.Key == Key ? &S.Value : nullptr;
  }

  /// Inserts \p Key with a value-initialized value unless present.
  /// Returns the key's value and whether the key was new.
  std::pair<ValueT *, bool> tryEmplace(uint64_t Key) {
    if (Key == 0) {
      bool Inserted = !HasZero;
      if (Inserted) {
        HasZero = true;
        ZeroValue = ValueT();
      }
      return {&ZeroValue, Inserted};
    }
    if (Slots.empty())
      grow();
    size_t I = probe(Key);
    if (Slots[I].Key == Key)
      return {&Slots[I].Value, false};
    if ((Used + 1) * 4 > Slots.size() * 3) {
      grow();
      I = probe(Key);
    }
    Slot &S = Slots[I];
    S.Key = Key;
    S.Value = ValueT();
    ++Used;
    return {&S.Value, true};
  }

  /// Inserts \p Key unless present; true when it was new.
  bool insert(uint64_t Key) { return tryEmplace(Key).second; }

  /// Starts loading \p Key's home slot into the cache, so a later find
  /// or insert of it does not stall on memory. Callers with a batch of
  /// keys prefetch them all first, then probe in order. Purely a hint:
  /// an insert in between (even one that grows the array) only makes it
  /// useless.
  void prefetch(uint64_t Key) const {
    if (!Slots.empty())
      __builtin_prefetch(&Slots[home(Key)]);
  }

  ValueT &operator[](uint64_t Key) { return *tryEmplace(Key).first; }

  /// Drops every key; the array keeps its capacity.
  void clear() {
    std::fill(Slots.begin(), Slots.end(), Slot());
    Used = 0;
    HasZero = false;
  }

  /// Calls \p Keep(Key, Value&) once per key, in no particular order, and
  /// drops the keys it returns false for. \p Keep may change the value.
  /// The survivors are re-placed into a fresh array of the same capacity.
  template <typename Fn> void retainIf(Fn Keep) {
    if (HasZero && !Keep(uint64_t(0), ZeroValue))
      HasZero = false;
    if (Slots.empty())
      return;
    std::vector<Slot> Old =
        std::exchange(Slots, std::vector<Slot>(Slots.size()));
    Used = 0;
    for (Slot &S : Old)
      if (S.Key != 0 && Keep(S.Key, S.Value)) {
        Slots[probe(S.Key)] = S;
        ++Used;
      }
  }

  /// Calls \p F(Key, const Value&) once per key, in no particular order.
  template <typename Fn> void forEach(Fn F) const {
    if (HasZero)
      F(uint64_t(0), ZeroValue);
    for (const Slot &S : Slots)
      if (S.Key != 0)
        F(S.Key, S.Value);
  }

private:
  struct Slot {
    uint64_t Key = 0;
    [[no_unique_address]] ValueT Value = ValueT();
  };
  static_assert(!std::is_empty_v<ValueT> || sizeof(Slot) == sizeof(uint64_t),
                "a set slot must be the bare key");

  /// Where \p Key's probe starts. The array must not be empty.
  size_t home(uint64_t Key) const {
    return static_cast<size_t>((Key * 0x9E3779B97F4A7C15ULL) >> Shift);
  }

  /// The slot holding \p Key, or the empty slot where it would go.
  /// Terminates because the load limit always leaves an empty slot.
  size_t probe(uint64_t Key) const {
    size_t Mask = Slots.size() - 1;
    size_t I = home(Key);
    while (Slots[I].Key != Key && Slots[I].Key != 0)
      I = (I + 1) & Mask;
    return I;
  }

  void grow() {
    std::vector<Slot> Old = std::exchange(
        Slots, std::vector<Slot>(std::max<size_t>(16, Slots.size() * 2)));
    Shift = 64 - std::countr_zero(Slots.size());
    for (const Slot &S : Old)
      if (S.Key != 0)
        Slots[probe(S.Key)] = S;
  }

  std::vector<Slot> Slots;
  /// 64 - log2(capacity): the Fibonacci product's top bits index the array.
  unsigned Shift = 64;
  /// Occupied array slots (key 0 excluded).
  size_t Used = 0;
  bool HasZero = false;
  [[no_unique_address]] ValueT ZeroValue = ValueT();
};

/// The value type of FlatHashSet.
struct NoValue {};

/// Open-addressing set of 64-bit hash keys: 8 bytes per slot.
using FlatHashSet = FlatHashMap<NoValue>;

} // namespace pfuzz

#endif // PFUZZ_SUPPORT_FLATHASHMAP_H
