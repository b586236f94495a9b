//===- bench/BenchJson.h - Machine-readable bench results --------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every campaign bench accepts `--json=PATH` and writes its measurements
/// as a JSON array of records
///
///   {"bench": ..., "subject": ..., "execs_per_sec": ...,
///    "wall_ms": ..., "queue_bytes_peak": ..., "rescore_ns_per_exec": ...,
///    "shards": ..., "shard_deltas": ..., "shard_migrations": ...,
///    "shard_frontier_lag": ...}
///
/// so CI and trend scripts consume throughput numbers without scraping
/// the human-readable tables. Every record carries every key — disabled
/// features emit 0 instead of omitting the field, so downstream
/// BENCH_*.json diffing never needs schema sniffing. String fields are
/// JSON-escaped on write, so records stay well-formed even when a label
/// carries quotes, backslashes, or control bytes.
///
/// Benches fill a BenchJsonRecord by designated initializer — each
/// measurement names exactly the fields it has, everything else stays at
/// its documented zero — and hand it to add(). The old positional
/// overload (defaulted doubles, where adding a field in the middle
/// silently re-bound every later call site) is gone on purpose.
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_BENCH_BENCHJSON_H
#define PFUZZ_BENCH_BENCHJSON_H

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace pfuzz {

/// One campaign measurement.
struct BenchJsonRecord {
  std::string Bench;
  std::string Subject;
  double ExecsPerSec = 0;
  /// Measurement wall-clock in milliseconds. Call sites convert
  /// explicitly (`.WallMs = Seconds * 1000.0`) — the writer stores what
  /// it is given.
  double WallMs = 0;
  /// Peak sampled candidate-queue bytes (0 = not a pFuzzer measurement).
  double QueueBytesPeak = 0;
  /// Queue-rescore wall time amortized per execution, in nanoseconds.
  double RescoreNsPerExec = 0;
  /// Shard loops the measurement ran with (0 = not a sharded pFuzzer
  /// measurement; 1 = sharded engine explicitly pinned to one shard).
  double Shards = 0;
  /// Coverage-frontier delta packets published across all shards.
  double ShardDeltas = 0;
  /// Candidate migrations accepted across all shards.
  double ShardMigrations = 0;
  /// Worst observed frontier lag, in sync epochs.
  double ShardFrontierLag = 0;
};

/// Escapes \p S for embedding in a JSON string literal: quotes and
/// backslashes get a backslash, control bytes become \uXXXX.
inline std::string benchJsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    unsigned char U = static_cast<unsigned char>(C);
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (U < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", U);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

/// Collects records and writes them on demand. Constructed with an empty
/// path (the flag's default), every call is a no-op.
class BenchJsonWriter {
public:
  explicit BenchJsonWriter(std::string Path) : Path(std::move(Path)) {}

  void add(BenchJsonRecord Record) {
    if (Path.empty())
      return;
    Records.push_back(std::move(Record));
  }

  /// Writes the collected records to the path; returns true on success
  /// (and when disabled). Benches call this last and fold the result
  /// into their exit code so a bad --json path is not silently ignored.
  bool write() const {
    if (Path.empty())
      return true;
    std::FILE *Out = std::fopen(Path.c_str(), "w");
    if (Out == nullptr) {
      std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                   Path.c_str());
      return false;
    }
    std::fprintf(Out, "[\n");
    for (size_t I = 0; I != Records.size(); ++I) {
      const BenchJsonRecord &R = Records[I];
      std::fprintf(Out,
                   "  {\"bench\": \"%s\", \"subject\": \"%s\","
                   " \"execs_per_sec\": %.1f, \"wall_ms\": %.3f,"
                   " \"queue_bytes_peak\": %.0f,"
                   " \"rescore_ns_per_exec\": %.4f, \"shards\": %.0f,"
                   " \"shard_deltas\": %.0f, \"shard_migrations\": %.0f,"
                   " \"shard_frontier_lag\": %.0f}%s\n",
                   benchJsonEscape(R.Bench).c_str(),
                   benchJsonEscape(R.Subject).c_str(), R.ExecsPerSec, R.WallMs,
                   R.QueueBytesPeak,
                   R.RescoreNsPerExec, R.Shards, R.ShardDeltas,
                   R.ShardMigrations, R.ShardFrontierLag,
                   I + 1 == Records.size() ? "" : ",");
    }
    std::fprintf(Out, "]\n");
    std::fclose(Out);
    return true;
  }

private:
  std::string Path;
  std::vector<BenchJsonRecord> Records;
};

} // namespace pfuzz

#endif // PFUZZ_BENCH_BENCHJSON_H
