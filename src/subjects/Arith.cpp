//===- subjects/Arith.cpp - Section 2 worked-example subject --------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "mystery program P" of Section 2: a recursive-descent parser for
/// arithmetic expressions over digits, parentheses, '+' and '-'. Valid
/// inputs include "1", "11", "+1", "-1", "1+1", "1-1", "(1)", "(2-94)".
/// The parser reads one character of lookahead and compares it against the
/// alternatives the grammar admits at that point, which is exactly the
/// behaviour Figure 1 of the paper illustrates.
///
//===----------------------------------------------------------------------===//

#include "subjects/Subject.h"

#include "runtime/Instrument.h"

using namespace pfuzz;

PF_INSTRUMENT_BEGIN()

namespace {

/// Recursive-descent parser for the Section 2 expression language.
///
///   input   ::= expr <end of input>
///   expr    ::= ['+' | '-'] operand (('+' | '-') operand)*
///   operand ::= number | '(' expr ')'
///   number  ::= digit+
class ArithParser {
public:
  explicit ArithParser(ExecutionContext &Ctx) : Ctx(Ctx) {}

  /// Returns 0 iff the whole input is one valid expression.
  int parse() {
    if (PF_BR(Ctx, !parseExpr()))
      return 1;
    // Check that nothing follows the expression; the read past the end of
    // a valid input is the EOF probe Figure 1 describes.
    TChar End = Ctx.peekChar();
    if (PF_BR(Ctx, !End.isEof()))
      return 1;
    return 0;
  }

private:
  bool parseExpr() {
    PF_FUNC(Ctx);
    TChar Sign = Ctx.peekChar();
    if (PF_IF_SET(Ctx, Sign, "+-"))
      Ctx.nextChar();
    if (PF_BR(Ctx, !parseOperand()))
      return false;
    for (;;) {
      TChar Op = Ctx.peekChar();
      if (!PF_IF_SET(Ctx, Op, "+-"))
        return true;
      Ctx.nextChar();
      if (PF_BR(Ctx, !parseOperand()))
        return false;
    }
  }

  bool parseOperand() {
    PF_FUNC(Ctx);
    TChar C = Ctx.peekChar();
    if (PF_IF_EQ(Ctx, C, '(')) {
      Ctx.nextChar();
      if (PF_BR(Ctx, !parseExpr()))
        return false;
      TChar Close = Ctx.peekChar();
      if (!PF_IF_EQ(Ctx, Close, ')'))
        return false;
      Ctx.nextChar();
      return true;
    }
    if (!PF_IF_RANGE(Ctx, C, '0', '9'))
      return false;
    while (PF_IF_RANGE(Ctx, Ctx.peekChar(), '0', '9'))
      Ctx.nextChar();
    return true;
  }

  ExecutionContext &Ctx;
};

} // namespace

PF_INSTRUMENT_END(ArithNumBranchSites)

namespace {

class ArithSubject final : public Subject {
public:
  std::string_view name() const override { return "arith"; }
  uint32_t numBranchSites() const override { return ArithNumBranchSites; }
  int run(ExecutionContext &Ctx) const override {
    return ArithParser(Ctx).parse();
  }
};

} // namespace

const Subject &pfuzz::arithSubject() {
  static const ArithSubject Instance;
  return Instance;
}
