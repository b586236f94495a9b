//===- examples/custom_subject.cpp - Bring your own parser ----------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shows how to put *your own* parser under pFuzzer: implement Subject,
/// read input through the ExecutionContext, and route comparisons through
/// the instrumentation macros (the moral equivalent of compiling your C
/// program with the paper's LLVM pass).
///
/// The example parser accepts a tiny network-message language:
///
///   message ::= ("GET" | "PUT") " " path ["?" digits] <end>
///   path    ::= "/" [a-z]+ ("/" [a-z]+)*
///
/// Watch pFuzzer synthesise GET/PUT via the wrapped strcmp and grow valid
/// paths — no grammar, no seed inputs.
///
///   ./custom_subject [--execs=N] [--seed=N]
///
//===----------------------------------------------------------------------===//

#include "core/PFuzzer.h"
#include "runtime/Instrument.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace pfuzz;

PF_INSTRUMENT_BEGIN()

namespace {

/// The user-supplied parser: a recursive-descent "message" parser.
class MessageParser {
public:
  explicit MessageParser(ExecutionContext &Ctx) : Ctx(Ctx) {}

  int parse() {
    PF_FUNC(Ctx);
    // Method: a 3-letter word compared via the wrapped strcmp.
    TString Method;
    for (int I = 0; I < 3; ++I) {
      TChar C = Ctx.peekChar(I);
      if (PF_BR(Ctx, C.isEof()))
        break;
      Method.push_back(C);
    }
    bool IsGet = Ctx.cmpStr(Method, "GET");
    bool IsPut = Ctx.cmpStr(Method, "PUT");
    if (PF_BR(Ctx, !IsGet && !IsPut))
      return 1;
    for (int I = 0; I < 3; ++I)
      Ctx.nextChar();
    if (!PF_IF_EQ(Ctx, Ctx.peekChar(), ' '))
      return 1;
    Ctx.nextChar();
    if (PF_BR(Ctx, !parsePath()))
      return 1;
    // Optional query: "?" digits.
    if (PF_IF_EQ(Ctx, Ctx.peekChar(), '?')) {
      Ctx.nextChar();
      if (!PF_IF_RANGE(Ctx, Ctx.peekChar(), '0', '9'))
        return 1;
      while (PF_IF_RANGE(Ctx, Ctx.peekChar(), '0', '9'))
        Ctx.nextChar();
    }
    if (PF_BR(Ctx, !Ctx.peekChar().isEof()))
      return 1;
    return 0;
  }

private:
  bool parsePath() {
    PF_FUNC(Ctx);
    if (!PF_IF_EQ(Ctx, Ctx.peekChar(), '/'))
      return false;
    while (PF_IF_EQ(Ctx, Ctx.peekChar(), '/')) {
      Ctx.nextChar();
      if (!PF_IF_RANGE(Ctx, Ctx.peekChar(), 'a', 'z'))
        return false;
      while (PF_IF_RANGE(Ctx, Ctx.peekChar(), 'a', 'z'))
        Ctx.nextChar();
    }
    return true;
  }

  ExecutionContext &Ctx;
};

} // namespace

PF_INSTRUMENT_END(MessageNumBranchSites)

namespace {

class MessageSubject final : public Subject {
public:
  std::string_view name() const override { return "message"; }
  uint32_t numBranchSites() const override { return MessageNumBranchSites; }
  int run(ExecutionContext &Ctx) const override {
    return MessageParser(Ctx).parse();
  }
};

} // namespace

int main(int Argc, char **Argv) {
  CommandLine Cli(Argc, Argv);
  uint64_t Execs =
      static_cast<uint64_t>(Cli.getCount("execs", 15000, /*Min=*/1));
  uint64_t Seed = static_cast<uint64_t>(Cli.getInt("seed", 1));
  if (!Cli.ok() || !Cli.unqueried().empty()) {
    std::fprintf(stderr, "usage: custom_subject [--execs=N] [--seed=N]\n");
    return 1;
  }

  MessageSubject S;
  std::printf("Custom subject: %u branch sites registered by the"
              " instrumentation.\n",
              S.numBranchSites());
  std::printf("Sanity: accepts(\"GET /a\") = %d, accepts(\"POST /a\") ="
              " %d\n\n",
              S.accepts("GET /a"), S.accepts("POST /a"));

  PFuzzer Tool;
  FuzzerOptions Opts;
  Opts.Seed = Seed;
  Opts.MaxExecutions = Execs;
  FuzzReport R = Tool.run(S, Opts);

  std::printf("pFuzzer discovered %zu valid messages in %llu"
              " executions:\n",
              R.ValidInputs.size(),
              static_cast<unsigned long long>(R.Executions));
  size_t Shown = 0;
  for (const std::string &Input : R.ValidInputs) {
    std::printf("  %s\n", escapeString(Input).c_str());
    if (++Shown == 15 && R.ValidInputs.size() > 15) {
      std::printf("  ... and %zu more\n", R.ValidInputs.size() - 15);
      break;
    }
  }
  bool SawGet = false, SawPut = false, SawQuery = false;
  for (const std::string &I : R.ValidInputs) {
    SawGet |= I.find("GET") != std::string::npos;
    SawPut |= I.find("PUT") != std::string::npos;
    SawQuery |= I.find('?') != std::string::npos;
  }
  std::printf("\nsynthesised GET: %s, PUT: %s, query strings: %s\n",
              SawGet ? "yes" : "no", SawPut ? "yes" : "no",
              SawQuery ? "yes" : "no");
  return 0;
}
