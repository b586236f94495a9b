//===- subjects/Json.cpp - JSON subject (cJSON-like) ----------------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JSON parser modelled on DaveGamble/cJSON, the paper's third evaluation
/// subject. Full JSON: objects, arrays, strings with escapes (including
/// \uXXXX with surrogate pairs and UTF-8 re-encoding), numbers with
/// fraction and exponent, and the keywords true/false/null (recognised via
/// the wrapped-strcmp primitive, which is how pFuzzer synthesises them —
/// Section 5.3).
///
/// Faithful quirk: the \uXXXX hex digits are validated through *implicit*
/// comparisons and the decoded code point is an untainted integer, so the
/// taint-based extraction never sees the UTF-16 conversion constraints.
/// This reproduces the paper's observation that pFuzzer misses the
/// UTF16-to-UTF8 feature set on cJSON (Section 5.2) while a symbolic
/// executor still covers it.
///
//===----------------------------------------------------------------------===//

#include "subjects/Subject.h"

#include "runtime/Instrument.h"

using namespace pfuzz;

PF_INSTRUMENT_BEGIN()

namespace {

/// Maximum object/array nesting depth (cJSON's CJSON_NESTING_LIMIT).
constexpr uint32_t JsonNestingLimit = 200;

/// Recursive-descent JSON parser over the instrumented runtime.
class JsonParser {
public:
  explicit JsonParser(ExecutionContext &Ctx) : Ctx(Ctx) {}

  /// Returns 0 iff the input is exactly one JSON value with optional
  /// surrounding whitespace. The empty input is invalid (cJSON returns
  /// NULL for it).
  int parse() {
    skipWs();
    if (PF_BR(Ctx, !parseValue()))
      return 1;
    skipWs();
    TChar End = Ctx.peekChar();
    if (PF_BR(Ctx, !End.isEof()))
      return 1;
    return 0;
  }

private:
  /// cJSON skips everything <= ' ' — a range check on the raw byte.
  void skipWs() {
    PF_FUNC(Ctx);
    for (;;) {
      TChar C = Ctx.peekChar();
      if (PF_BR(Ctx, C.isEof()))
        return;
      if (!PF_IF_RANGE_IMPL(Ctx, C, '\x01', ' '))
        return;
      Ctx.nextChar();
    }
  }

  bool parseValue() {
    PF_FUNC(Ctx);
    if (PF_BR(Ctx, Depth >= JsonNestingLimit))
      return false;
    TChar C = Ctx.peekChar();
    if (PF_IF_EQ(Ctx, C, '{'))
      return parseObject();
    if (PF_IF_EQ(Ctx, C, '['))
      return parseArray();
    if (PF_IF_EQ(Ctx, C, '"')) {
      Ctx.nextChar();
      return parseString();
    }
    if (PF_IF_EQ(Ctx, C, 't'))
      return parseLiteral("true");
    if (PF_IF_EQ(Ctx, C, 'f'))
      return parseLiteral("false");
    if (PF_IF_EQ(Ctx, C, 'n'))
      return parseLiteral("null");
    if (PF_IF_EQ(Ctx, C, '-'))
      return parseNumber();
    if (PF_IF_RANGE(Ctx, C, '0', '9'))
      return parseNumber();
    return false;
  }

  /// Matches \p Keyword via the wrapped strcmp: the candidate bytes are
  /// gathered (with their taints) and compared as one string, exactly like
  /// cJSON's strncmp(value, "true", 4).
  bool parseLiteral(std::string_view Keyword) {
    PF_FUNC(Ctx);
    TString Lit;
    for (uint32_t I = 0; I < Keyword.size(); ++I) {
      TChar C = Ctx.peekChar(I);
      if (PF_BR(Ctx, C.isEof()))
        break;
      Lit.push_back(C);
    }
    if (!PF_IF_STR(Ctx, Lit, Keyword))
      return false;
    for (uint32_t I = 0; I < Keyword.size(); ++I)
      Ctx.nextChar();
    return true;
  }

  bool parseObject() {
    PF_FUNC(Ctx);
    Ctx.nextChar(); // consume '{'
    ++Depth;
    bool Ok = parseObjectBody();
    --Depth;
    return Ok;
  }

  bool parseObjectBody() {
    PF_FUNC(Ctx);
    skipWs();
    TChar C = Ctx.peekChar();
    if (PF_IF_EQ(Ctx, C, '}')) {
      Ctx.nextChar();
      return true;
    }
    for (;;) {
      skipWs();
      TChar Quote = Ctx.peekChar();
      if (!PF_IF_EQ(Ctx, Quote, '"'))
        return false; // member name must be a string
      Ctx.nextChar();
      if (PF_BR(Ctx, !parseString()))
        return false;
      skipWs();
      TChar Colon = Ctx.peekChar();
      if (!PF_IF_EQ(Ctx, Colon, ':'))
        return false;
      Ctx.nextChar();
      skipWs();
      if (PF_BR(Ctx, !parseValue()))
        return false;
      skipWs();
      TChar Sep = Ctx.peekChar();
      if (PF_IF_EQ(Ctx, Sep, ',')) {
        Ctx.nextChar();
        continue;
      }
      if (PF_IF_EQ(Ctx, Sep, '}')) {
        Ctx.nextChar();
        return true;
      }
      return false;
    }
  }

  bool parseArray() {
    PF_FUNC(Ctx);
    Ctx.nextChar(); // consume '['
    ++Depth;
    bool Ok = parseArrayBody();
    --Depth;
    return Ok;
  }

  bool parseArrayBody() {
    PF_FUNC(Ctx);
    skipWs();
    TChar C = Ctx.peekChar();
    if (PF_IF_EQ(Ctx, C, ']')) {
      Ctx.nextChar();
      return true;
    }
    for (;;) {
      skipWs();
      if (PF_BR(Ctx, !parseValue()))
        return false;
      skipWs();
      TChar Sep = Ctx.peekChar();
      if (PF_IF_EQ(Ctx, Sep, ',')) {
        Ctx.nextChar();
        continue;
      }
      if (PF_IF_EQ(Ctx, Sep, ']')) {
        Ctx.nextChar();
        return true;
      }
      return false;
    }
  }

  /// Parses the body of a string after the opening quote.
  bool parseString() {
    PF_FUNC(Ctx);
    for (;;) {
      TChar C = Ctx.peekChar();
      if (PF_BR(Ctx, C.isEof()))
        return false; // unterminated string
      Ctx.nextChar();
      if (PF_IF_EQ(Ctx, C, '"'))
        return true;
      if (PF_IF_EQ(Ctx, C, '\\')) {
        if (PF_BR(Ctx, !parseEscape()))
          return false;
        continue;
      }
      // Unescaped control characters are invalid (RFC 8259); checked with
      // a raw byte-range comparison as cJSON does.
      if (PF_IF_RANGE_IMPL(Ctx, C, '\x00', '\x1f'))
        return false;
    }
  }

  bool parseEscape() {
    PF_FUNC(Ctx);
    TChar C = Ctx.peekChar();
    if (PF_BR(Ctx, C.isEof()))
      return false;
    Ctx.nextChar();
    if (PF_IF_EQ(Ctx, C, 'u'))
      return parseUnicodeEscape();
    return PF_IF_SET(Ctx, C, "\"\\/bfnrt");
  }

  /// Decodes the 4 hex digits after \u. The digit validation is a ctype-
  /// style implicit comparison and the decoded value is an untainted int:
  /// the taint tracker loses the connection to the input here.
  bool parseHex4(uint32_t &Value) {
    PF_FUNC(Ctx);
    Value = 0;
    for (int I = 0; I < 4; ++I) {
      TChar C = Ctx.peekChar();
      if (PF_BR(Ctx, C.isEof()))
        return false;
      uint32_t Digit;
      if (PF_IF_RANGE_IMPL(Ctx, C, '0', '9'))
        Digit = static_cast<uint32_t>(C.ch() - '0');
      else if (PF_IF_RANGE_IMPL(Ctx, C, 'a', 'f'))
        Digit = static_cast<uint32_t>(C.ch() - 'a' + 10);
      else if (PF_IF_RANGE_IMPL(Ctx, C, 'A', 'F'))
        Digit = static_cast<uint32_t>(C.ch() - 'A' + 10);
      else
        return false;
      Ctx.nextChar();
      Value = (Value << 4) | Digit;
    }
    return true;
  }

  /// The UTF-16-to-UTF-8 conversion of cJSON's parse_string: surrogate
  /// pair handling plus the 1/2/3/4-byte re-encoding. All comparisons here
  /// operate on the untainted decoded code point — the feature set the
  /// paper reports pFuzzer cannot reach.
  bool parseUnicodeEscape() {
    PF_FUNC(Ctx);
    uint32_t First = 0;
    if (PF_BR(Ctx, !parseHex4(First)))
      return false;
    uint32_t CodePoint = First;
    if (PF_BR(Ctx, First >= 0xDC00 && First <= 0xDFFF))
      return false; // lone low surrogate
    if (PF_BR(Ctx, First >= 0xD800 && First <= 0xDBFF)) {
      // High surrogate: a \uXXXX low surrogate must follow.
      TChar Bs = Ctx.peekChar();
      if (!PF_IF_EQ(Ctx, Bs, '\\'))
        return false;
      Ctx.nextChar();
      TChar U = Ctx.peekChar();
      if (!PF_IF_EQ(Ctx, U, 'u'))
        return false;
      Ctx.nextChar();
      uint32_t Second = 0;
      if (PF_BR(Ctx, !parseHex4(Second)))
        return false;
      if (PF_BR(Ctx, !(Second >= 0xDC00 && Second <= 0xDFFF)))
        return false;
      CodePoint =
          0x10000 + (((First - 0xD800) << 10) | (Second - 0xDC00));
    }
    // UTF-8 length selection; the branch structure mirrors cJSON.
    if (PF_BR(Ctx, CodePoint < 0x80))
      Utf8Bytes += 1;
    else if (PF_BR(Ctx, CodePoint < 0x800))
      Utf8Bytes += 2;
    else if (PF_BR(Ctx, CodePoint < 0x10000))
      Utf8Bytes += 3;
    else
      Utf8Bytes += 4;
    return true;
  }

  bool parseNumber() {
    PF_FUNC(Ctx);
    TChar Sign = Ctx.peekChar();
    if (PF_IF_EQ(Ctx, Sign, '-'))
      Ctx.nextChar();
    // Integer part: '0' alone or a nonzero digit followed by more digits.
    TChar First = Ctx.peekChar();
    if (PF_IF_EQ(Ctx, First, '0')) {
      Ctx.nextChar();
    } else if (PF_IF_RANGE(Ctx, First, '1', '9')) {
      Ctx.nextChar();
      while (PF_IF_RANGE(Ctx, Ctx.peekChar(), '0', '9'))
        Ctx.nextChar();
    } else {
      return false; // '-' without digits
    }
    // Fraction.
    if (PF_IF_EQ(Ctx, Ctx.peekChar(), '.')) {
      Ctx.nextChar();
      if (!PF_IF_RANGE(Ctx, Ctx.peekChar(), '0', '9'))
        return false;
      while (PF_IF_RANGE(Ctx, Ctx.peekChar(), '0', '9'))
        Ctx.nextChar();
    }
    // Exponent.
    if (PF_IF_SET(Ctx, Ctx.peekChar(), "eE")) {
      Ctx.nextChar();
      if (PF_IF_SET(Ctx, Ctx.peekChar(), "+-"))
        Ctx.nextChar();
      if (!PF_IF_RANGE(Ctx, Ctx.peekChar(), '0', '9'))
        return false;
      while (PF_IF_RANGE(Ctx, Ctx.peekChar(), '0', '9'))
        Ctx.nextChar();
    }
    return true;
  }

  ExecutionContext &Ctx;
  uint32_t Depth = 0;
  /// Total UTF-8 bytes produced by \u escapes; keeps the encoder branches
  /// observable without building the decoded string.
  uint32_t Utf8Bytes = 0;
};

} // namespace

PF_INSTRUMENT_END(JsonNumBranchSites)

namespace {

class JsonSubject final : public Subject {
public:
  std::string_view name() const override { return "json"; }
  uint32_t numBranchSites() const override { return JsonNumBranchSites; }
  int run(ExecutionContext &Ctx) const override {
    return JsonParser(Ctx).parse();
  }
};

} // namespace

const Subject &pfuzz::jsonSubject() {
  static const JsonSubject Instance;
  return Instance;
}
