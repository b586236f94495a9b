//===- subjects/Csv.cpp - CSV subject (csvparser-like) --------------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RFC-4180-style CSV parser modelled on JamesRamm/csv_parser, the paper's
/// second evaluation subject. Grammar:
///
///   file   ::= record ('\n' record)* ['\n']
///   record ::= field (',' field)*
///   field  ::= quoted | bare
///   quoted ::= '"' (qchar | '""')* '"'
///   bare   ::= any char except ',' '"' '\n'
///
/// Errors: a quote inside a bare field, an unterminated quoted field, and
/// garbage between a closing quote and the next delimiter.
///
//===----------------------------------------------------------------------===//

#include "subjects/Subject.h"

#include "runtime/Instrument.h"

using namespace pfuzz;

PF_INSTRUMENT_BEGIN()

namespace {

/// Streaming CSV parser over the instrumented runtime.
class CsvParser {
public:
  explicit CsvParser(ExecutionContext &Ctx) : Ctx(Ctx) {}

  /// Returns 0 iff the input is a well-formed CSV file (the empty file is
  /// one empty record and is accepted).
  int parse() {
    for (;;) {
      if (PF_BR(Ctx, !parseField()))
        return 1;
      TChar C = Ctx.peekChar();
      if (PF_BR(Ctx, C.isEof()))
        return 0;
      Ctx.nextChar();
      if (PF_IF_EQ(Ctx, C, ','))
        continue; // next field in the same record
      if (PF_IF_EQ(Ctx, C, '\n'))
        continue; // next record
      return 1;   // only reachable after a quoted field: stray character
    }
  }

private:
  bool parseField() {
    PF_FUNC(Ctx);
    TChar C = Ctx.peekChar();
    if (PF_IF_EQ(Ctx, C, '"')) {
      Ctx.nextChar();
      return parseQuoted();
    }
    return parseBare();
  }

  /// Consumes a bare field; stops before ',' or '\n' or EOF. A '"' inside
  /// a bare field is an error (csv_parser rejects it).
  bool parseBare() {
    PF_FUNC(Ctx);
    for (;;) {
      TChar C = Ctx.peekChar();
      if (PF_BR(Ctx, C.isEof()))
        return true;
      if (PF_IF_EQ(Ctx, C, ','))
        return true;
      if (PF_IF_EQ(Ctx, C, '\n'))
        return true;
      if (PF_IF_EQ(Ctx, C, '"'))
        return false;
      Ctx.nextChar();
    }
  }

  /// Consumes a quoted field after the opening '"'. A doubled quote is an
  /// escaped quote character.
  bool parseQuoted() {
    PF_FUNC(Ctx);
    for (;;) {
      TChar C = Ctx.peekChar();
      if (PF_BR(Ctx, C.isEof()))
        return false; // unterminated quote
      Ctx.nextChar();
      if (!PF_IF_EQ(Ctx, C, '"'))
        continue;
      TChar Next = Ctx.peekChar();
      if (PF_IF_EQ(Ctx, Next, '"')) {
        Ctx.nextChar(); // escaped quote, stay in the field
        continue;
      }
      return true; // closing quote
    }
  }

  ExecutionContext &Ctx;
};

} // namespace

PF_INSTRUMENT_END(CsvNumBranchSites)

namespace {

class CsvSubject final : public Subject {
public:
  std::string_view name() const override { return "csv"; }
  uint32_t numBranchSites() const override { return CsvNumBranchSites; }
  int run(ExecutionContext &Ctx) const override {
    return CsvParser(Ctx).parse();
  }
};

} // namespace

const Subject &pfuzz::csvSubject() {
  static const CsvSubject Instance;
  return Instance;
}
