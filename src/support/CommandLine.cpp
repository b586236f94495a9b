//===- support/CommandLine.cpp - Minimal flag parser ----------------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"

#include "support/StringUtils.h"

#include <cerrno>
#include <cstdlib>

using namespace pfuzz;

CommandLine::CommandLine(int Argc, const char *const *Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (!startsWith(Arg, "--")) {
      Positional.push_back(Arg);
      continue;
    }
    if (Arg == "--") {
      Ok = false;
      return;
    }
    std::string Body = Arg.substr(2);
    size_t Eq = Body.find('=');
    if (Eq == std::string::npos) {
      Values[Body] = "true";
      Queried[Body] = false;
    } else {
      Values[Body.substr(0, Eq)] = Body.substr(Eq + 1);
      Queried[Body.substr(0, Eq)] = false;
    }
  }
}

std::string CommandLine::getString(const std::string &Name,
                                   const std::string &Default) const {
  Queried[Name] = true;
  auto It = Values.find(Name);
  return It == Values.end() ? Default : It->second;
}

int64_t CommandLine::getInt(const std::string &Name, int64_t Default) const {
  Queried[Name] = true;
  auto It = Values.find(Name);
  if (It == Values.end())
    return Default;
  char *End = nullptr;
  errno = 0;
  int64_t Value = std::strtoll(It->second.c_str(), &End, 10);
  // A value past the int64 boundary saturates inside strtoll; returning
  // the saturated LLONG_MAX/LLONG_MIN would make "--execs=1e50 typed as
  // digits" run an effectively unbounded campaign. Treat overflow like
  // any other malformed value and keep the default.
  if (End == It->second.c_str() || *End != '\0' || errno == ERANGE)
    return Default;
  return Value;
}

int64_t CommandLine::getCount(const std::string &Name, int64_t Default,
                              int64_t Min) const {
  Queried[Name] = true;
  auto It = Values.find(Name);
  if (It == Values.end())
    return Default;
  // Silent-wrap protection: where getInt shrugs off garbage, a count
  // flag must reject it — "--jobs=abc" or "--max-queue=-5" running a
  // default-configured campaign hides the typo from the user.
  char *End = nullptr;
  errno = 0;
  int64_t Value = std::strtoll(It->second.c_str(), &End, 10);
  bool Malformed = End == It->second.c_str() || *End != '\0' ||
                   errno == ERANGE || It->second.empty();
  if (Malformed || Value < Min) {
    Errors.push_back("--" + Name + " expects an integer >= " +
                     std::to_string(Min) + ", got '" + It->second + "'");
    return Default;
  }
  return Value;
}

bool CommandLine::getBool(const std::string &Name, bool Default) const {
  Queried[Name] = true;
  auto It = Values.find(Name);
  if (It == Values.end())
    return Default;
  return It->second == "true" || It->second == "1" || It->second.empty();
}

std::vector<std::string> CommandLine::unqueried() const {
  std::vector<std::string> Out;
  for (const auto &[Name, WasQueried] : Queried)
    if (!WasQueried)
      Out.push_back(Name);
  return Out;
}
