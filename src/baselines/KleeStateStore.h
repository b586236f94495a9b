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
/// - The bytes live in an append-only arena of fixed-size blocks that no
///   state crosses, so the arena grows without copying. A state is a
///   32-bit (offset, length) reference into it. A state stays in the
///   arena after it is popped, because the seen set still refers to it.
/// - The seen set is an open-addressing table of 16-byte (hash,
///   reference) slots with linear probing. A hash match compares the
///   bytes too, so the set is exact even when hashes collide.
/// - The queue is a deque of references; a state goes to its front or
///   its back.
/// - A state is probed with the caller's bytes and appended to the arena
///   only when it is new, so a duplicate stores nothing.
/// - push() queues one state. stage() and flush() queue a batch: stage()
///   hashes each state and starts loading its slot into the cache, so
///   flush() probes slots that are already on their way.
///
/// The hash and the block size are template parameters so that a test
/// can make every key collide or states meet block ends; the campaign
/// uses std::hash and 1 MiB blocks.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_BASELINES_KLEESTATESTORE_H
#define PFUZZ_BASELINES_KLEESTATESTORE_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pfuzz {

template <typename HashFn = std::hash<std::string_view>,
          uint64_t BlockSize = uint64_t{1} << 20>
class KleeStateStore {
  static_assert(std::has_single_bit(BlockSize),
                "KleeStateStore: BlockSize must be a power of two");

public:
  /// A store that refuses states longer than \p MaxLen bytes, and any
  /// state while \p MaxPending states are queued. \p MaxLen must fit in
  /// one arena block.
  KleeStateStore(uint32_t MaxLen, size_t MaxPending)
      : MaxLen(MaxLen), MaxPending(MaxPending) {
    if (MaxLen > BlockSize)
      throw std::invalid_argument(
          "KleeStateStore: MaxLen exceeds the arena block size");
  }

  /// Queues \p Bytes at the front or the back unless it is too long, the
  /// queue is full, or it was queued before. A refused state is not
  /// marked as seen. Returns whether \p Bytes was queued. Throws
  /// std::length_error when the arena would outgrow 32-bit offsets.
  bool push(std::string_view Bytes, bool Front) {
    if (Bytes.size() > MaxLen || full())
      return false;
    reserve(1);
    return insert(hashOf(Bytes), Bytes, Front);
  }

  /// Adds \p Bytes to the batch that the next flush() queues, and starts
  /// loading its seen-set slot into the cache. A batch queues exactly
  /// what push() would queue for its states in staging order. Once the
  /// batch holds as many states as the queue has room for (at least
  /// MinBatch), stage() flushes it, so a caller that checks full()
  /// between stages stops enumerating states the queue would refuse.
  void stage(std::string_view Bytes, bool Front) {
    if (Bytes.size() > MaxLen)
      return;
    uint64_t Hash = hashOf(Bytes);
    // Room for the whole batch now: flush() does not grow the table, so
    // the slots prefetched here are the ones it probes.
    reserve(Staged.size() + 1);
    __builtin_prefetch(&Slots[home(Hash)]);
    Staged.push_back({Hash, StagedBytes.size(),
                      static_cast<uint32_t>(Bytes.size()), Front});
    StagedBytes.append(Bytes);
    if (Staged.size() >= std::max(MinBatch, MaxPending - Queue.size()))
      flush();
  }

  /// Queues the staged states in staging order, each as push() would
  /// (and throwing as it does), and empties the batch.
  void flush() {
    std::string_view Bytes = StagedBytes;
    for (const StagedState &S : Staged) {
      // Nothing pops while flushing, so a full queue refuses the rest.
      if (full())
        break;
      insert(S.Hash, Bytes.substr(S.Offset, S.Len), S.Front);
    }
    Staged.clear();
    StagedBytes.clear();
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
    Out.assign(bytesOf(R));
  }

  /// The smallest batch that stage() flushes early.
  static constexpr size_t MinBatch = 16;

private:
  struct Ref {
    uint32_t Offset = 0;
    uint32_t Len = 0;
  };
  struct Slot {
    uint64_t Hash = 0;
    Ref State;
  };
  static_assert(sizeof(Slot) == 16);
  struct StagedState {
    uint64_t Hash;
    size_t Offset; // into StagedBytes
    uint32_t Len;
    bool Front;
  };

  static uint64_t hashOf(std::string_view Bytes) {
    uint64_t Hash = static_cast<uint64_t>(HashFn()(Bytes));
    return Hash == 0 ? 1 : Hash; // 0 marks an empty slot
  }

  std::string_view bytesOf(Ref R) const {
    return {Blocks[R.Offset / BlockSize].get() + R.Offset % BlockSize, R.Len};
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

  /// Queues \p Bytes unless the set holds it. The table must have room
  /// for one more key.
  bool insert(uint64_t Hash, std::string_view Bytes, bool Front) {
    size_t I = probe(Hash, Bytes);
    if (Slots[I].Hash != 0)
      return false;
    Ref R = place(Bytes);
    Slots[I] = {Hash, R};
    ++Seen;
    if (Front)
      Queue.push_front(R);
    else
      Queue.push_back(R);
    return true;
  }

  /// Grows the table until \p More further keys keep it under its load
  /// limit.
  void reserve(size_t More) {
    while ((Seen + More) * 4 > Slots.size() * 3)
      grow();
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

  /// Copies \p Bytes to the end of the arena, starting a new block when
  /// they would cross the last one's end, and returns where they are.
  Ref place(std::string_view Bytes) {
    // An empty state still needs an offset inside a block.
    if (Blocks.empty() ||
        BlockSize - Used < std::max<size_t>(Bytes.size(), 1)) {
      // Every offset in the new block must fit in a Ref.
      if (Blocks.size() + 1 > (uint64_t{1} << 32) / BlockSize)
        throw std::length_error(
            "KleeStateStore: arena exceeds 32-bit offsets");
      Blocks.push_back(std::make_unique_for_overwrite<char[]>(BlockSize));
      Used = 0;
    }
    Ref R{static_cast<uint32_t>((Blocks.size() - 1) * BlockSize + Used),
          static_cast<uint32_t>(Bytes.size())};
    if (!Bytes.empty())
      std::memcpy(Blocks.back().get() + Used, Bytes.data(), Bytes.size());
    Used += Bytes.size();
    return R;
  }

  uint32_t MaxLen;
  size_t MaxPending;
  std::vector<std::unique_ptr<char[]>> Blocks;
  /// Bytes in use in the last block.
  uint64_t Used = 0;
  std::vector<Slot> Slots;
  /// 64 - log2(capacity): the Fibonacci product's top bits index the table.
  unsigned Shift = 64;
  size_t Seen = 0;
  std::deque<Ref> Queue;
  /// The batch stage() collects, and the bytes of its states.
  std::vector<StagedState> Staged;
  std::string StagedBytes;
};

} // namespace pfuzz

#endif // PFUZZ_BASELINES_KLEESTATESTORE_H
