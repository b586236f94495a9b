//===- support/CommandLine.h - Minimal flag parser ---------------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal `--name=value` command-line parser used by the bench and
/// example binaries. Unknown flags are rejected so typos surface instead of
/// silently running a default campaign.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_SUPPORT_COMMANDLINE_H
#define PFUZZ_SUPPORT_COMMANDLINE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pfuzz {

/// Parsed command line: `--name=value` pairs, bare `--name` flags (value
/// "true"), and positional arguments.
class CommandLine {
public:
  /// Parses \p Argv. On an argument that is neither a flag nor positional
  /// (e.g. a lone "--"), parsing stops and ok() is false.
  CommandLine(int Argc, const char *const *Argv);

  /// False after a malformed argument or a getCount domain violation;
  /// diagnostics are in errors().
  bool ok() const { return Ok && Errors.empty(); }

  /// Returns the string value for \p Name, or \p Default when absent.
  std::string getString(const std::string &Name,
                        const std::string &Default) const;

  /// Returns the integer value for \p Name, or \p Default when absent or
  /// malformed.
  int64_t getInt(const std::string &Name, int64_t Default) const;

  /// Returns the integer value for \p Name, or \p Default when absent —
  /// but unlike getInt, a value that is garbage, has trailing junk, or
  /// lies below \p Min (0 by default: counts of things) is a usage
  /// error: a diagnostic naming the flag is recorded in errors(), ok()
  /// turns false, and \p Default is returned. Flags whose smallest
  /// meaningful value is not 0 (e.g. --execs) pass their own floor.
  int64_t getCount(const std::string &Name, int64_t Default,
                   int64_t Min = 0) const;

  /// Diagnostics accumulated by getCount, in query order.
  const std::vector<std::string> &errors() const { return Errors; }

  /// Returns the boolean value for \p Name ("", "1", "true" => true).
  bool getBool(const std::string &Name, bool Default) const;

  bool has(const std::string &Name) const { return Values.count(Name) != 0; }

  const std::vector<std::string> &positional() const { return Positional; }

  /// Returns the flag names that were never queried via get*/has. Benches
  /// call this to reject typos.
  std::vector<std::string> unqueried() const;

private:
  bool Ok = true;
  std::map<std::string, std::string> Values;
  mutable std::map<std::string, bool> Queried;
  mutable std::vector<std::string> Errors;
  std::vector<std::string> Positional;
};

} // namespace pfuzz

#endif // PFUZZ_SUPPORT_COMMANDLINE_H
