//===- subjects/Ini.cpp - INI-file subject (inih-like) --------------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Line-oriented INI parser modelled on benhoyt/inih, the paper's first
/// evaluation subject (Table 1). Grammar:
///
///   file    ::= line*
///   line    ::= ws* (comment | section | pair | "") eol
///   comment ::= ';' any*
///   section ::= '[' name-char* ']' ws* [comment]
///   pair    ::= key-char+ ws* '=' any*
///
/// The most complex structure is the section delimiter (an opening bracket
/// that must be closed on the same line) — the feature the paper notes KLEE
/// misses. Whitespace handling goes through ctype-style implicit
/// comparisons (inih uses isspace()), which the paper's taint extraction
/// cannot see; this is one of the reasons AFL out-covers pFuzzer on ini
/// (Section 5.2).
///
//===----------------------------------------------------------------------===//

#include "subjects/Subject.h"

#include "runtime/Instrument.h"

using namespace pfuzz;

PF_INSTRUMENT_BEGIN()

namespace {

/// Recursive-descent INI parser over the instrumented runtime.
class IniParser {
public:
  explicit IniParser(ExecutionContext &Ctx) : Ctx(Ctx) {}

  /// Returns 0 iff every line is a valid comment, section or key=value
  /// pair. The empty file is valid (inih accepts it).
  int parse() {
    for (;;) {
      if (PF_BR(Ctx, Ctx.peekChar().isEof()))
        return 0;
      if (PF_BR(Ctx, !parseLine()))
        return 1;
    }
  }

private:
  /// Skips spaces and tabs. inih strips whitespace via isspace(), a ctype
  /// table lookup — an implicit flow the taint tracker cannot follow.
  void skipBlanks() {
    PF_FUNC(Ctx);
    while (PF_IF_SET_IMPL(Ctx, Ctx.peekChar(), " \t\r"))
      Ctx.nextChar();
  }

  /// Consumes the rest of the line including the newline (or EOF).
  void skipToEol() {
    PF_FUNC(Ctx);
    for (;;) {
      TChar C = Ctx.peekChar();
      if (PF_BR(Ctx, C.isEof()))
        return;
      Ctx.nextChar();
      if (PF_IF_EQ(Ctx, C, '\n'))
        return;
    }
  }

  /// Consumes the end of a line: optional blanks, optional comment, then a
  /// newline or EOF. Returns false when a stray character follows.
  bool finishLine() {
    PF_FUNC(Ctx);
    skipBlanks();
    TChar C = Ctx.peekChar();
    if (PF_BR(Ctx, C.isEof()))
      return true;
    if (PF_IF_EQ(Ctx, C, '\n')) {
      Ctx.nextChar();
      return true;
    }
    if (PF_IF_EQ(Ctx, C, ';')) {
      skipToEol();
      return true;
    }
    return false;
  }

  bool parseLine() {
    PF_FUNC(Ctx);
    skipBlanks();
    TChar C = Ctx.peekChar();
    if (PF_BR(Ctx, C.isEof()))
      return true;
    if (PF_IF_EQ(Ctx, C, '\n')) { // blank line
      Ctx.nextChar();
      return true;
    }
    if (PF_IF_EQ(Ctx, C, ';')) { // comment line
      skipToEol();
      return true;
    }
    if (PF_IF_EQ(Ctx, C, '[')) {
      Ctx.nextChar();
      return parseSection();
    }
    return parsePair();
  }

  /// `[` name `]` — the name may contain anything but ']' and newline.
  bool parseSection() {
    PF_FUNC(Ctx);
    for (;;) {
      TChar C = Ctx.peekChar();
      if (PF_BR(Ctx, C.isEof()))
        return false; // unterminated section header
      if (PF_IF_EQ(Ctx, C, ']')) {
        Ctx.nextChar();
        return finishLine();
      }
      if (PF_IF_EQ(Ctx, C, '\n'))
        return false; // newline before ']'
      Ctx.nextChar();
    }
  }

  /// key `=` value — the key may not contain '=', newline or ';'.
  bool parsePair() {
    PF_FUNC(Ctx);
    bool SawKeyChar = false;
    for (;;) {
      TChar C = Ctx.peekChar();
      if (PF_BR(Ctx, C.isEof()))
        return false; // key without '='
      if (PF_IF_EQ(Ctx, C, '=')) {
        Ctx.nextChar();
        if (PF_BR(Ctx, !SawKeyChar))
          return false; // empty key
        skipToEol();    // values are unconstrained
        return true;
      }
      if (PF_IF_EQ(Ctx, C, '\n'))
        return false; // line is neither comment, section nor pair
      if (PF_IF_EQ(Ctx, C, ';'))
        return false; // comment may not interrupt a key
      if (PF_BR(Ctx, !isBlank(C)))
        SawKeyChar = true;
      Ctx.nextChar();
    }
  }

  /// isspace()-style check — implicit flow, untracked taint.
  bool isBlank(const TChar &C) {
    return Ctx.cmpSet(C, " \t\r", /*Implicit=*/true);
  }

  ExecutionContext &Ctx;
};

} // namespace

PF_INSTRUMENT_END(IniNumBranchSites)

namespace {

class IniSubject final : public Subject {
public:
  std::string_view name() const override { return "ini"; }
  uint32_t numBranchSites() const override { return IniNumBranchSites; }
  int run(ExecutionContext &Ctx) const override {
    return IniParser(Ctx).parse();
  }
};

} // namespace

const Subject &pfuzz::iniSubject() {
  static const IniSubject Instance;
  return Instance;
}
