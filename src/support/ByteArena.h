//===- support/ByteArena.h - Append-only byte arena --------------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat append-only byte arena: callers append slices and address them
/// by (offset, length) instead of owning a string each. The candidate
/// store keeps every queued candidate's full bytes here, so a hundred
/// thousand candidates cost one allocation-amortized buffer instead of a
/// hundred thousand std::string heads. Offsets are stable until the
/// owner rebuilds the arena (compaction swaps in a fresh one and patches
/// its own offsets), so views must not be cached across a compaction.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_SUPPORT_BYTEARENA_H
#define PFUZZ_SUPPORT_BYTEARENA_H

#include <cstdint>
#include <string>
#include <string_view>

namespace pfuzz {

/// Append-only byte storage addressed by (offset, length) slices.
class ByteArena {
public:
  /// Appends \p Bytes and returns the offset of the copy.
  uint32_t append(std::string_view Bytes) {
    uint32_t Ofs = static_cast<uint32_t>(Bytes_.size());
    Bytes_.append(Bytes);
    return Ofs;
  }

  /// The slice stored at [\p Ofs, \p Ofs + \p Len). Valid until the next
  /// append that reallocates or a swap/clear.
  std::string_view view(uint32_t Ofs, uint32_t Len) const {
    return std::string_view(Bytes_).substr(Ofs, Len);
  }

  const char *data() const { return Bytes_.data(); }
  size_t size() const { return Bytes_.size(); }
  size_t capacity() const { return Bytes_.capacity(); }

  void clear() { Bytes_.clear(); }

  /// Reserves storage up front (compaction sizes the replacement arena
  /// from the live-byte count).
  void reserve(size_t Bytes) { Bytes_.reserve(Bytes); }

  void swap(ByteArena &Other) { Bytes_.swap(Other.Bytes_); }

private:
  std::string Bytes_;
};

} // namespace pfuzz

#endif // PFUZZ_SUPPORT_BYTEARENA_H
