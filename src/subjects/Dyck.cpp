//===- subjects/Dyck.cpp - Balanced-bracket subject -----------------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The well-balanced parenthesis language of Section 3's search-space
/// analysis ("a simple parenthesis input language which require
/// well-balanced open and close parentheses"), extended to the multiple
/// bracket kinds of Section 3.2's generation-loop discussion ("say the
/// parser is able to parse different kinds of brackets (round, square,
/// pointed ...)"). The empty string is not a sentence; each bracket must
/// be closed by its own counterpart.
///
//===----------------------------------------------------------------------===//

#include "subjects/Subject.h"

#include "runtime/Instrument.h"

using namespace pfuzz;

PF_INSTRUMENT_BEGIN()

namespace {

/// Recursive-descent matcher for balanced round/square/pointed brackets.
///
///   input  ::= group+
///   group  ::= '(' group* ')' | '[' group* ']' | '<' group* '>'
class DyckParser {
public:
  explicit DyckParser(ExecutionContext &Ctx) : Ctx(Ctx) {}

  int parse() {
    if (PF_BR(Ctx, !parseGroup()))
      return 1;
    while (PF_BR(Ctx, !Ctx.peekChar().isEof()))
      if (PF_BR(Ctx, !parseGroup()))
        return 1;
    return 0;
  }

private:
  bool parseGroup() {
    PF_FUNC(Ctx);
    if (PF_BR(Ctx, ++Depth > 300))
      return false;
    bool Ok = parseGroupImpl();
    --Depth;
    return Ok;
  }

  bool parseGroupImpl() {
    PF_FUNC(Ctx);
    TChar Open = Ctx.peekChar();
    char Close;
    if (PF_IF_EQ(Ctx, Open, '('))
      Close = ')';
    else if (PF_IF_EQ(Ctx, Open, '['))
      Close = ']';
    else if (PF_IF_EQ(Ctx, Open, '<'))
      Close = '>';
    else
      return false;
    Ctx.nextChar();
    for (;;) {
      TChar C = Ctx.peekChar();
      if (PF_BR(Ctx, C.isEof()))
        return false; // unclosed group
      if (PF_BR(Ctx, Ctx.cmpEq(C, Close))) {
        Ctx.nextChar();
        return true;
      }
      // Anything else must start a nested group.
      if (PF_BR(Ctx, !parseGroup()))
        return false;
    }
  }

  ExecutionContext &Ctx;
  uint32_t Depth = 0;
};

} // namespace

PF_INSTRUMENT_END(DyckNumBranchSites)

namespace {

class DyckSubject final : public Subject {
public:
  std::string_view name() const override { return "dyck"; }
  uint32_t numBranchSites() const override { return DyckNumBranchSites; }
  int run(ExecutionContext &Ctx) const override {
    return DyckParser(Ctx).parse();
  }
};

} // namespace

const Subject &pfuzz::dyckSubject() {
  static const DyckSubject Instance;
  return Instance;
}
