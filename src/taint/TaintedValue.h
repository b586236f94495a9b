//===- taint/TaintedValue.h - Tainted chars and strings ----------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tainted runtime values. Subjects read TChar values from the input
/// stream; string-building operations (token accumulation, strcpy-style
/// wrappers in the paper) propagate taints automatically through TString.
///
/// An explicit dropTaint() models *implicit* information flow: the paper's
/// prototype does not track control-dependent flows ("naively tainting all
/// implicit information flows can lead to large overtainting", citing
/// DTA++), and the cJSON UTF-16 decoding misses coverage because of it. Our
/// json subject reproduces that by routing the decoded code point through
/// dropTaint().
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_TAINT_TAINTEDVALUE_H
#define PFUZZ_TAINT_TAINTEDVALUE_H

#include "taint/Taint.h"

#include <string>
#include <string_view>
#include <type_traits>

namespace pfuzz {

/// The sentinel value a read past the end of input yields (EOF).
constexpr int EofChar = -1;

/// A character (or EOF) together with the hull of the input indices it
/// derives from.
class TChar {
public:
  TChar() = default;
  TChar(int Value, TaintBounds Taint) : Value(Value), Taint(Taint) {}

  /// Creates an untainted constant (e.g. a literal in the subject).
  static TChar constant(int Value) { return TChar(Value, TaintBounds()); }

  int value() const { return Value; }
  bool isEof() const { return Value == EofChar; }
  char ch() const { return static_cast<char>(Value); }
  const TaintBounds &taint() const { return Taint; }

  /// Returns a copy whose taint has been discarded — models implicit flow
  /// through control dependences, which the prototype does not track.
  TChar dropTaint() const { return TChar(Value, TaintBounds()); }

  /// Derives a new value from this one (keeps the taint). Used for case
  /// folding and arithmetic on characters.
  TChar derive(int NewValue) const { return TChar(NewValue, Taint); }

private:
  int Value = EofChar;
  TaintBounds Taint;
};

static_assert(std::is_trivially_copyable_v<TChar>,
              "TChar is copied on every character read; keep it a plain value");

/// A string whose bytes carry taints; mirrors the paper's wrapped C string
/// functions which "propagate taints automatically".
class TString {
public:
  TString() = default;

  void clear() {
    Bytes.clear();
    Taint = TaintBounds();
  }

  bool empty() const { return Bytes.empty(); }
  size_t size() const { return Bytes.size(); }

  /// Appends \p C, accumulating its taint.
  void push_back(const TChar &C) {
    Bytes.push_back(C.ch());
    Taint.mergeWith(C.taint());
  }

  /// Appends an untainted literal character.
  void appendLiteral(char C) { Bytes.push_back(C); }

  /// The concrete bytes.
  const std::string &str() const { return Bytes; }
  std::string_view view() const { return Bytes; }

  /// Hull of the taints of all bytes.
  const TaintBounds &taint() const { return Taint; }

  bool operator==(std::string_view Other) const { return Bytes == Other; }

private:
  std::string Bytes;
  TaintBounds Taint;
};

} // namespace pfuzz

#endif // PFUZZ_TAINT_TAINTEDVALUE_H
