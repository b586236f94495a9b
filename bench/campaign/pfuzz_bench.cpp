//===- bench/campaign/pfuzz_bench.cpp - Campaign-level benchmark ----------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs whole fuzzing campaigns at fixed execution budgets and reports
/// what a user of the fuzzer sees (throughput, CPU per execution,
/// coverage and tokens at the budget, memory, set-up time) plus, in a
/// separate traced run, where the campaign time went layer by layer.
///
///   pfuzz_bench [--workload NAME]... [--seed N] [--seconds S]
///               [--trace 0|1 | --trace=FILE] [--results FILE] [--smoke]
///
/// Each workload runs in a child process of its own. A child repeats its
/// cells round-robin over three campaign seeds: at least three
/// repetitions, and with --seconds as many more as fit. Timings are
/// per-cell medians over the repetitions, so a burst of load from other
/// processes on the machine moves one sample, not the result. The traced
/// run pairs every traced campaign with an untraced one of the same seed,
/// alternating which runs first, so the tracing overhead is measured in
/// the same process. Every campaign's outputs are checked against the
/// subject independently of the engine; any failed check makes the run
/// exit 1.
/// The last stdout line is one JSON object with the headline result;
/// results.json holds everything.
///
/// Only APIs the program is expected to keep are used: runCampaign,
/// CampaignResult::{Report, TokensFound, TotalExecutions},
/// ToolOptions::PFuzzerShards, Subject, TokenInventory and the
/// name-keyed telemetry registry. Every read of one layer's stats sits
/// behind a `requires` guard, so deleting the layer turns its metrics to
/// 0 instead of breaking this build.
///
//===----------------------------------------------------------------------===//

#include "TracedSubject.h"

#include "eval/Campaign.h"
#include "subjects/Subject.h"
#include "support/Telemetry.h"
#include "tokens/TokenInventory.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace pfuzz;
using namespace pfuzz::bench;

namespace {

//===----------------------------------------------------------------------===//
// Metric catalogue (names and units match BENCHMARK.json)
//===----------------------------------------------------------------------===//

struct MetricDef {
  const char *Name;
  const char *Unit;
};

constexpr MetricDef EndToEnd[] = {
    {"execs_per_sec", "execs/s"},   {"cpu_us_per_exec", "us"},
    {"branch_coverage", "outcomes"}, {"tokens_found", "tokens"},
    {"long_tokens_found", "tokens"}, {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

constexpr MetricDef PerLayer[] = {
    {"subjects.run_s", "s"},
    {"subjects.runs", "count"},
    {"subjects.resumed_runs", "count"},
    {"subjects.run_us_p50", "us"},
    {"subjects.run_us_p99", "us"},
    {"subjects.bytes_per_s", "B/s"},
    {"runtime.resume_restore_s", "s"},
    {"runtime.resume_hit_rate", "ratio"},
    {"runtime.resume_bytes_skipped", "B"},
    {"core.rescore_s", "s"},
    {"core.rescores", "count"},
    {"core.rescore_us_p50", "us"},
    {"core.rescore_us_p99", "us"},
    {"core.trim_s", "s"},
    {"core.trims", "count"},
    {"core.queue_peak_candidates", "count"},
    {"core.queue_bytes_peak", "B"},
    {"core.run_cache_hit_rate", "ratio"},
    {"core.shard_sync_s", "s"},
    {"core.shard_deltas", "count"},
    {"core.shard_migration_accept_rate", "ratio"},
    {"core.shard_frontier_lag_max", "epochs"},
    {"core.loop_self_s", "s"},
    {"baselines.self_s", "s"},
    {"eval.campaign_s", "s"},
    {"trace.overhead", "ratio"},
};

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Cell {
  ToolKind Tool;
  const char *Subject;
  uint64_t Executions;
  uint32_t Shards;
};

struct Workload {
  const char *Name;
  std::vector<Cell> Cells;
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<Workload> &workloads() {
  static const std::vector<Workload> All = [] {
    const char *Paper[] = {"ini", "csv", "json", "tinyc", "mjs"};
    Workload Paper5{"paper5", {}}, Baselines{"baselines", {}};
    for (const char *S : Paper)
      Paper5.Cells.push_back({ToolKind::PFuzzer, S, 100000, 1});
    for (const char *S : Paper)
      Baselines.Cells.push_back({ToolKind::Afl, S, 30000, 1});
    for (const char *S : Paper)
      Baselines.Cells.push_back({ToolKind::Klee, S, 20000, 1});
    // The shard count is fixed, not nproc: it changes the search.
    Workload Sharded{"sharded",
                     {{ToolKind::PFuzzer, "json", 400000, 4},
                      {ToolKind::PFuzzer, "mjs", 400000, 4}}};
    Workload JsonDeep{"json-deep", {{ToolKind::PFuzzer, "json", 400000, 1}}};
    return std::vector<Workload>{Paper5, JsonDeep, Sharded, Baselines};
  }();
  return All;
}

const Workload *findWorkload(const std::string &Name) {
  for (const Workload &W : workloads())
    if (Name == W.Name)
      return &W;
  return nullptr;
}

std::string cellName(const Cell &C) {
  std::string N = std::string(toolName(C.Tool)) + "/" + C.Subject;
  if (C.Shards > 1)
    N += "@" + std::to_string(C.Shards);
  return N;
}

//===----------------------------------------------------------------------===//
// Options
//===----------------------------------------------------------------------===//

struct Options {
  std::vector<std::string> Workloads;
  uint64_t Seed = 1;
  double Seconds = 0; // 0: a fixed number of repetitions
  bool Trace = false;
  std::string TraceFile;
  std::string Results = "results.json";
  bool Smoke = false;
  bool Child = false;
  bool SetupOnly = false;
};

[[noreturn]] void usage(const std::string &Error) {
  std::fprintf(stderr,
               "pfuzz_bench: %s\n"
               "usage: pfuzz_bench [--workload NAME]... [--seed N] "
               "[--seconds S] [--trace 0|1 | --trace=FILE] "
               "[--results FILE] [--smoke]\n",
               Error.c_str());
  std::exit(2);
}

uint64_t parseU64(const std::string &Flag, const std::string &V) {
  uint64_t Out = 0;
  auto [End, Ec] = std::from_chars(V.data(), V.data() + V.size(), Out);
  if (Ec != std::errc() || End != V.data() + V.size())
    usage("bad value for " + Flag + ": '" + V + "'");
  return Out;
}

double parseSeconds(const std::string &V) {
  char *End = nullptr;
  double Out = std::strtod(V.c_str(), &End);
  if (V.empty() || *End != '\0' || !(Out > 0) || Out > 86400)
    usage("bad value for --seconds: '" + V + "'");
  return Out;
}

/// Accepts both `--flag value` and `--flag=value`.
Options parseOptions(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I], Flag = Arg, Value;
    bool Inline = false;
    size_t Eq = Arg.find('=');
    if (Arg.rfind("--", 0) == 0 && Eq != std::string::npos) {
      Flag = Arg.substr(0, Eq);
      Value = Arg.substr(Eq + 1);
      Inline = true;
    }
    auto Next = [&]() -> std::string {
      if (Inline)
        return Value;
      if (I + 1 >= Argc)
        usage(Flag + " needs a value");
      return Argv[++I];
    };
    if (Flag == "--workload") {
      std::string W = Next();
      if (!findWorkload(W))
        usage("unknown workload '" + W + "'");
      O.Workloads.push_back(W);
    } else if (Flag == "--seed") {
      O.Seed = parseU64(Flag, Next());
    } else if (Flag == "--seconds") {
      O.Seconds = parseSeconds(Next());
    } else if (Flag == "--trace") {
      std::string V = Next();
      if (V == "0" || V == "1") {
        O.Trace = V == "1";
      } else {
        O.Trace = true;
        O.TraceFile = V;
      }
    } else if (Flag == "--results") {
      O.Results = Next();
    } else if (Flag == "--smoke" && !Inline) {
      O.Smoke = true;
    } else if (Flag == "--child" && !Inline) {
      O.Child = true;
    } else if (Flag == "--setup-only" && !Inline) {
      O.SetupOnly = true;
    } else {
      usage("unknown argument '" + Arg + "'");
    }
  }
  if (O.Workloads.empty())
    for (const Workload &W : workloads())
      O.Workloads.push_back(W.Name);
  if (O.Smoke)
    O.Trace = true;
  if (O.Trace && O.TraceFile.empty())
    O.TraceFile = "trace.ndjson";
  return O;
}

/// Smoke runs divide every budget by this.
constexpr uint64_t SmokeDivisor = 50;

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// User plus system time of the whole process, all threads.
double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) / 1e6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

std::string formatNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, End) : "0";
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

void fnv(uint64_t &H, const void *Data, size_t Len) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Len; ++I) {
    H ^= P[I];
    H *= 0x100000001B3ULL;
  }
}

void fnvU64(uint64_t &H, uint64_t V) { fnv(H, &V, sizeof(V)); }

/// Linear interpolation inside the registry's power-of-two buckets
/// (bucket I holds [2^(I-1), 2^I)); nanoseconds.
double registryQuantile(const HistogramData &H, double Q) {
  if (H.Count == 0)
    return 0;
  double Rank = Q * static_cast<double>(H.Count);
  double Seen = 0;
  for (size_t I = 0; I != HistogramData::BucketCount; ++I) {
    double N = static_cast<double>(H.Buckets[I]);
    if (N > 0 && Seen + N >= Rank) {
      double Lo = I == 0 ? 0 : std::ldexp(1.0, static_cast<int>(I) - 1);
      double Hi = std::ldexp(1.0, static_cast<int>(I));
      return Lo + (Hi - Lo) * ((Rank - Seen) / N);
    }
    Seen += N;
  }
  return std::ldexp(1.0, HistogramData::BucketCount - 1);
}

//===----------------------------------------------------------------------===//
// Layer stats, read behind requires guards
//===----------------------------------------------------------------------===//

struct LayerStats {
  uint64_t ResumeProbes = 0, ResumeHits = 0, ResumeBytesSkipped = 0;
  uint64_t QueuePeakCandidates = 0, QueuePeakBytes = 0;
  bool HaveRunCache = false;
  uint64_t RunCacheLookups = 0, RunCacheHits = 0;
  uint64_t ShardDeltas = 0, MigrationsOffered = 0, MigrationsAccepted = 0;
  uint64_t MaxFrontierLag = 0;

  void merge(const LayerStats &O) {
    ResumeProbes += O.ResumeProbes;
    ResumeHits += O.ResumeHits;
    ResumeBytesSkipped += O.ResumeBytesSkipped;
    QueuePeakCandidates = std::max(QueuePeakCandidates, O.QueuePeakCandidates);
    QueuePeakBytes = std::max(QueuePeakBytes, O.QueuePeakBytes);
    RunCacheLookups += O.RunCacheLookups;
    RunCacheHits += O.RunCacheHits;
    ShardDeltas += O.ShardDeltas;
    MigrationsOffered += O.MigrationsOffered;
    MigrationsAccepted += O.MigrationsAccepted;
    MaxFrontierLag = std::max(MaxFrontierLag, O.MaxFrontierLag);
  }
};

template <typename ResultT> LayerStats readLayerStats(const ResultT &R) {
  LayerStats L;
  if constexpr (requires {
                  R.Telemetry.Resume.Probes;
                  R.Telemetry.Resume.Hits;
                  R.Telemetry.Resume.BytesSkipped;
                }) {
    L.ResumeProbes = R.Telemetry.Resume.Probes;
    L.ResumeHits = R.Telemetry.Resume.Hits;
    L.ResumeBytesSkipped = R.Telemetry.Resume.BytesSkipped;
  }
  if constexpr (requires {
                  R.Telemetry.Queue.PeakCandidates;
                  R.Telemetry.Queue.PeakBytes;
                }) {
    L.QueuePeakCandidates = R.Telemetry.Queue.PeakCandidates;
    L.QueuePeakBytes = R.Telemetry.Queue.PeakBytes;
  }
  if constexpr (requires {
                  R.Telemetry.RunCacheLookups;
                  R.Telemetry.RunCacheHits;
                }) {
    L.HaveRunCache = true;
    L.RunCacheLookups = R.Telemetry.RunCacheLookups;
    L.RunCacheHits = R.Telemetry.RunCacheHits;
  }
  if constexpr (requires {
                  R.Telemetry.Sharding.DeltasPublished;
                  R.Telemetry.Sharding.MigrationsOffered;
                  R.Telemetry.Sharding.MigrationsAccepted;
                  R.Telemetry.Sharding.MaxFrontierLag;
                }) {
    L.ShardDeltas = R.Telemetry.Sharding.DeltasPublished;
    L.MigrationsOffered = R.Telemetry.Sharding.MigrationsOffered;
    L.MigrationsAccepted = R.Telemetry.Sharding.MigrationsAccepted;
    L.MaxFrontierLag = R.Telemetry.Sharding.MaxFrontierLag;
  }
  return L;
}

//===----------------------------------------------------------------------===//
// One campaign: run, trace, check
//===----------------------------------------------------------------------===//

/// The product's span histograms the traced run reads.
struct Spans {
  HistogramData Rescore, Trim, ShardSync, ResumeRestore;

  void merge(const Spans &O) {
    Rescore.accumulate(O.Rescore);
    Trim.accumulate(O.Trim);
    ShardSync.accumulate(O.ShardSync);
    ResumeRestore.accumulate(O.ResumeRestore);
  }
};

struct CampaignRecord {
  size_t CellIdx = 0;
  size_t Rep = 0;
  size_t Slot = 0; // index of the campaign seed, see campaignSeed
  bool Traced = false;
  double WallS = 0, CpuS = 0;
  uint64_t Executions = 0;
  std::vector<uint32_t> Branches; // valid-input branch outcomes
  std::set<std::string> Tokens;
  uint64_t Digest = 0;
  std::vector<std::string> Failures;
  // Traced campaigns only.
  SubjectTrace Subj;
  Spans Span;
  LayerStats Layers;
};

/// Hash of everything the campaign reports: equal across repetitions and
/// between traced and untraced runs, since campaigns are deterministic
/// per (seed, shards).
uint64_t reportDigest(const CampaignResult &R) {
  uint64_t H = 0xCBF29CE484222325ULL;
  fnvU64(H, R.Report.Executions);
  for (const std::string &In : R.Report.ValidInputs) {
    fnvU64(H, In.size());
    fnv(H, In.data(), In.size());
  }
  for (uint32_t K : R.Report.ValidBranches.values())
    fnvU64(H, K);
  for (const auto &[Execs, Covered] : R.Report.CoverageTimeline) {
    fnvU64(H, Execs);
    fnvU64(H, Covered);
  }
  for (const std::string &T : R.TokensFound) {
    fnvU64(H, T.size());
    fnv(H, T.data(), T.size());
  }
  return H;
}

/// Checks a campaign's outputs against the subject alone, without the
/// engine: the budget was spent exactly, every reported input is valid,
/// and re-running the reported inputs covers exactly ValidBranches.
std::vector<std::string> checkOutputs(const Subject &S, uint64_t Budget,
                                      const CampaignResult &R) {
  std::vector<std::string> Fail;
  if (R.Report.Executions != Budget || R.TotalExecutions != Budget)
    Fail.push_back("executions " + std::to_string(R.Report.Executions) +
                   " != budget " + std::to_string(Budget));
  BranchCoverageMap Replayed;
  size_t Rejected = 0;
  for (const std::string &In : R.Report.ValidInputs) {
    if (!S.accepts(In)) {
      ++Rejected;
      continue;
    }
    RunResult Run = S.execute(In);
    for (uint32_t Key : Run.BranchTrace)
      Replayed.set(Key);
  }
  if (Rejected)
    Fail.push_back(std::to_string(Rejected) +
                   " reported valid inputs are rejected by the subject");
  if (!(Replayed == R.Report.ValidBranches))
    Fail.push_back("replayed coverage " + std::to_string(Replayed.size()) +
                   " outcomes != reported " +
                   std::to_string(R.Report.ValidBranches.size()));
  return Fail;
}

HistogramData spanDelta(const RegistrySnapshot &D, const char *Name) {
  const HistogramData *H = D.histogram(std::string("span.") + Name);
  return H ? *H : HistogramData{};
}

CampaignRecord runCell(const Cell &C, const Subject &S, uint64_t Seed,
                       uint64_t Divisor, bool Traced) {
  uint64_t Budget = std::max<uint64_t>(1, C.Executions / Divisor);
  ToolOptions Tools;
  Tools.PFuzzerShards = C.Shards;
  CampaignRecord Rec;
  Rec.Traced = Traced;
  std::optional<TracedSubject> Wrapper;
  RegistrySnapshot Before;
  if (Traced) {
    Wrapper.emplace(S);
    Before = TelemetryRegistry::global().snapshot();
  }
  const Subject &Target = Traced ? static_cast<const Subject &>(*Wrapper) : S;

  double Cpu0 = cpuSeconds();
  auto T0 = std::chrono::steady_clock::now();
  CampaignResult R = runCampaign(C.Tool, Target, Budget, Seed, /*Runs=*/1,
                                 /*Jobs=*/1, Tools);
  Rec.WallS = secondsSince(T0);
  Rec.CpuS = cpuSeconds() - Cpu0;

  if (Traced) {
    RegistrySnapshot D = TelemetryRegistry::global().snapshot().minus(Before);
    Rec.Subj = Wrapper->collect();
    Rec.Span = {spanDelta(D, "rescore"), spanDelta(D, "trim"),
                spanDelta(D, "shard_sync"), spanDelta(D, "resume_restore")};
    Rec.Layers = readLayerStats(R);
  }

  Rec.Executions = R.TotalExecutions;
  Rec.Branches = R.Report.ValidBranches.values();
  Rec.Tokens = R.TokensFound;
  Rec.Digest = reportDigest(R);
  Rec.Failures = checkOutputs(S, Budget, R);
  return Rec;
}

//===----------------------------------------------------------------------===//
// Child: one workload in its own process
//===----------------------------------------------------------------------===//

/// Repetition R runs every cell with campaign seed
/// campaignSeed(--seed, R % SeedsPerRun). A run thus averages over
/// several searches, and its numbers depend less on one seed's luck.
/// Every run makes at least SeedsPerRun repetitions, so coverage and
/// token counts are over the same campaigns whatever --seconds allows.
constexpr size_t SeedsPerRun = 3;

uint64_t campaignSeed(uint64_t Seed, size_t Slot) {
  return Seed * SeedsPerRun + Slot;
}

/// End-to-end metrics from the untraced campaigns. Timings: per cell the
/// median over repetitions, summed over cells. Coverage and tokens: per
/// cell what the campaigns of all seeds found together, summed. The
/// union varies less from run to run than any single campaign or the
/// best of three: the long tokens mjs finds differ by more than 2x
/// between seeds.
std::map<std::string, double>
endToEndMetrics(const Workload &W,
                const std::vector<CampaignRecord> &Records) {
  std::map<size_t, std::vector<const CampaignRecord *>> ByCell;
  for (const CampaignRecord &R : Records)
    if (!R.Traced)
      ByCell[R.CellIdx].push_back(&R);
  double Wall = 0, Cpu = 0, Execs = 0;
  std::map<size_t, std::set<uint32_t>> Branches;
  std::map<size_t, std::set<std::string>> Tokens;
  for (const auto &[Cell, Runs] : ByCell) {
    std::vector<double> Walls, Cpus;
    for (const CampaignRecord *R : Runs) {
      Walls.push_back(R->WallS);
      Cpus.push_back(R->CpuS);
      Branches[Cell].insert(R->Branches.begin(), R->Branches.end());
      Tokens[Cell].insert(R->Tokens.begin(), R->Tokens.end());
    }
    Wall += median(Walls);
    Cpu += median(Cpus);
    Execs += static_cast<double>(Runs.front()->Executions);
  }
  double Coverage = 0, Found = 0, Long = 0;
  for (const auto &[Cell, Keys] : Branches)
    Coverage += static_cast<double>(Keys.size());
  for (const auto &[Cell, Set] : Tokens) {
    const TokenInventory &Inv =
        TokenInventory::forSubject(W.Cells[Cell].Subject);
    Found += static_cast<double>(Set.size());
    for (const std::string &T : Set)
      Long += Inv.lengthOf(T) > 3;
  }
  return {{"execs_per_sec", ratio(Execs, Wall)},
          {"cpu_us_per_exec", ratio(Cpu * 1e6, Execs)},
          {"branch_coverage", Coverage},
          {"tokens_found", Found},
          {"long_tokens_found", Long}};
}

/// Per-layer metrics of one traced repetition.
std::map<std::string, double>
layerMetrics(const Workload &W,
             const std::vector<const CampaignRecord *> &Rep) {
  SubjectTrace Subj;
  Spans Span;
  LayerStats Layers;
  double Wall = 0, PfThread = 0, PfRun = 0, BlWall = 0, BlRun = 0;
  for (const CampaignRecord *R : Rep) {
    const Cell &C = W.Cells[R->CellIdx];
    Subj.merge(R->Subj);
    Span.merge(R->Span);
    Layers.merge(R->Layers);
    Wall += R->WallS;
    double RunS = static_cast<double>(R->Subj.RunNs.Sum) / 1e9;
    if (C.Tool == ToolKind::PFuzzer) {
      // Campaign thread time: every shard loop runs on its own thread.
      PfThread += R->WallS * C.Shards;
      PfRun += RunS;
    } else {
      BlWall += R->WallS;
      BlRun += RunS;
    }
  }
  double RunS = static_cast<double>(Subj.RunNs.Sum) / 1e9;
  double RestoreS = static_cast<double>(Span.ResumeRestore.Sum) / 1e9;
  double RescoreS = static_cast<double>(Span.Rescore.Sum) / 1e9;
  auto D = [](uint64_t V) { return static_cast<double>(V); };
  return {
      {"subjects.run_s", RunS},
      {"subjects.runs", D(Subj.RunNs.Count)},
      {"subjects.resumed_runs", D(Subj.ResumedRuns)},
      {"subjects.run_us_p50", registryQuantile(Subj.RunNs, 0.5) / 1e3},
      {"subjects.run_us_p99", registryQuantile(Subj.RunNs, 0.99) / 1e3},
      {"subjects.bytes_per_s", ratio(D(Subj.Bytes), RunS)},
      {"runtime.resume_restore_s", RestoreS},
      {"runtime.resume_hit_rate",
       ratio(D(Layers.ResumeHits), D(Layers.ResumeProbes))},
      {"runtime.resume_bytes_skipped", D(Layers.ResumeBytesSkipped)},
      {"core.rescore_s", RescoreS},
      {"core.rescores", D(Span.Rescore.Count)},
      {"core.rescore_us_p50", registryQuantile(Span.Rescore, 0.5) / 1e3},
      {"core.rescore_us_p99", registryQuantile(Span.Rescore, 0.99) / 1e3},
      {"core.trim_s", D(Span.Trim.Sum) / 1e9},
      {"core.trims", D(Span.Trim.Count)},
      {"core.queue_peak_candidates", D(Layers.QueuePeakCandidates)},
      {"core.queue_bytes_peak", D(Layers.QueuePeakBytes)},
      {"core.run_cache_hit_rate",
       ratio(D(Layers.RunCacheHits), D(Layers.RunCacheLookups))},
      {"core.shard_sync_s", D(Span.ShardSync.Sum) / 1e9},
      {"core.shard_deltas", D(Layers.ShardDeltas)},
      {"core.shard_migration_accept_rate",
       ratio(D(Layers.MigrationsAccepted), D(Layers.MigrationsOffered))},
      {"core.shard_frontier_lag_max", D(Layers.MaxFrontierLag)},
      // The partition of campaign thread time. span.run is left out:
      // rescore nests inside it and inside shard_sync.
      {"core.loop_self_s", PfThread - PfRun - RestoreS - RescoreS},
      {"baselines.self_s", BlWall - BlRun},
      {"eval.campaign_s", Wall},
  };
}

/// Writes \p Line to the parent.
void emit(const std::string &Line) {
  std::fputs((Line + "\n").c_str(), stdout);
  std::fflush(stdout);
}

/// Touches everything a campaign needs before the first timed campaign:
/// subject singletons, token inventories, one execution per subject.
std::vector<const Subject *> setUp(const Workload &W) {
  std::vector<const Subject *> Subjects;
  for (const Cell &C : W.Cells) {
    const Subject *S = findSubject(C.Subject);
    if (!S) {
      std::fprintf(stderr, "pfuzz_bench: no subject '%s'\n", C.Subject);
      std::exit(2);
    }
    TokenInventory::forSubject(S->name());
    S->execute("");
    Subjects.push_back(S);
  }
  return Subjects;
}

/// Appends one NDJSON span record per campaign to the trace file.
void writeTraceRecords(const Options &O, const Workload &W,
                       const std::vector<CampaignRecord> &Records) {
  std::FILE *F = std::fopen(O.TraceFile.c_str(), "a");
  if (!F) {
    std::fprintf(stderr, "pfuzz_bench: cannot open %s\n", O.TraceFile.c_str());
    return;
  }
  auto Hist = [](const HistogramData &H) {
    return "{\"count\":" + std::to_string(H.Count) +
           ",\"sum_ns\":" + std::to_string(H.Sum) + "}";
  };
  for (const CampaignRecord &R : Records) {
    const Cell &C = W.Cells[R.CellIdx];
    std::string L =
        "{\"workload\":" + jsonString(W.Name) +
        ",\"cell\":" + jsonString(cellName(C)) +
        ",\"rep\":" + std::to_string(R.Rep) +
        ",\"campaign_seed\":" + std::to_string(campaignSeed(O.Seed, R.Slot)) +
        ",\"traced\":" + (R.Traced ? "true" : "false") +
        ",\"campaign_s\":" + formatNumber(R.WallS) +
        ",\"cpu_s\":" + formatNumber(R.CpuS) +
        ",\"executions\":" + std::to_string(R.Executions) +
        ",\"shards\":" + std::to_string(C.Shards);
    if (R.Traced)
      L += ",\"subjects\":{\"runs\":" + std::to_string(R.Subj.RunNs.Count) +
           ",\"resumed_runs\":" + std::to_string(R.Subj.ResumedRuns) +
           ",\"run_ns\":" + std::to_string(R.Subj.RunNs.Sum) +
           ",\"bytes\":" + std::to_string(R.Subj.Bytes) +
           ",\"run_ns_p50\":" +
           formatNumber(registryQuantile(R.Subj.RunNs, 0.5)) +
           ",\"run_ns_p99\":" +
           formatNumber(registryQuantile(R.Subj.RunNs, 0.99)) +
           "},\"spans\":{\"rescore\":" + Hist(R.Span.Rescore) +
           ",\"trim\":" + Hist(R.Span.Trim) +
           ",\"shard_sync\":" + Hist(R.Span.ShardSync) +
           ",\"resume_restore\":" + Hist(R.Span.ResumeRestore) + "}";
    std::fputs((L + "}\n").c_str(), F);
  }
  std::fclose(F);
}

int runChild(const Options &O) {
  const Workload &W = *findWorkload(O.Workloads.front());
  std::vector<const Subject *> Subjects = setUp(W);
  emit("ready");
  if (O.SetupOnly)
    return 0;

  const uint64_t Divisor = O.Smoke ? SmokeDivisor : 1;
  std::vector<CampaignRecord> Records;
  std::map<std::pair<size_t, size_t>, uint64_t> FirstDigest;
  uint64_t Failed = 0;
  size_t Reps = 0;
  // Traced over untraced campaign time, one ratio per cell and repetition.
  std::vector<double> Overheads;
  auto T0 = std::chrono::steady_clock::now();
  for (size_t Rep = 0;; ++Rep) {
    size_t Slot = Rep % SeedsPerRun;
    for (size_t I = 0; I != W.Cells.size(); ++I) {
      // The traced run pairs every traced campaign with an untraced one of
      // the same seed. Which runs first alternates, so neither side always
      // meets the heap the other one grew.
      std::vector<bool> Modes = {false};
      if (O.Trace)
        Modes = (Rep + I) % 2 ? std::vector<bool>{true, false}
                              : std::vector<bool>{false, true};
      double Wall[2] = {0, 0};
      for (bool Traced : Modes) {
        CampaignRecord R = runCell(W.Cells[I], *Subjects[I],
                                   campaignSeed(O.Seed, Slot), Divisor, Traced);
        R.CellIdx = I;
        R.Rep = Rep;
        R.Slot = Slot;
        auto [It, Fresh] = FirstDigest.try_emplace({Slot, I}, R.Digest);
        if (!Fresh && It->second != R.Digest)
          R.Failures.push_back("report differs from the first campaign "
                               "with this seed");
        Failed += !R.Failures.empty();
        for (const std::string &F : R.Failures) {
          std::string Msg = cellName(W.Cells[I]) + " rep " +
                            std::to_string(Rep) + ": " + F;
          std::fprintf(stderr, "pfuzz_bench: FAIL %s\n", Msg.c_str());
          emit("fail " + Msg);
        }
        if (Traced && W.Cells[I].Tool == ToolKind::PFuzzer &&
            R.Layers.HaveRunCache)
          emit("accounting " + cellName(W.Cells[I]) + " " +
               std::to_string(R.Subj.RunNs.Count) + " " +
               std::to_string(R.Subj.ResumedRuns) + " " +
               std::to_string(R.Executions) + " " +
               std::to_string(R.Layers.RunCacheHits));
        Wall[Traced] = R.WallS;
        Records.push_back(std::move(R));
      }
      if (O.Trace)
        Overheads.push_back(ratio(Wall[1], Wall[0]));
    }
    Reps = Rep + 1;
    if (Reps < SeedsPerRun)
      continue;
    // Without --seconds, stop after one repetition per seed. With it,
    // start another repetition only if it should end in time.
    double Elapsed = secondsSince(T0);
    if (O.Seconds <= 0 ||
        Elapsed + Elapsed / static_cast<double>(Reps) > O.Seconds)
      break;
  }

  std::map<std::string, double> Out = endToEndMetrics(W, Records);
  if (O.Trace) {
    std::map<std::string, std::vector<double>> PerRep;
    for (size_t Rep = 0; Rep != Reps; ++Rep) {
      std::vector<const CampaignRecord *> Traced;
      for (const CampaignRecord &R : Records)
        if (R.Rep == Rep && R.Traced)
          Traced.push_back(&R);
      for (const auto &[Name, Value] : layerMetrics(W, Traced))
        PerRep[Name].push_back(Value);
    }
    for (const auto &[Name, Values] : PerRep)
      Out[Name] = median(Values);
    // Both sides of a pair ran the same campaign, so the time ratio is
    // the untraced over traced throughput ratio.
    Out["trace.overhead"] = median(Overheads);
    writeTraceRecords(O, W, Records);
  }
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  Out["peak_rss_mb"] = static_cast<double>(U.ru_maxrss) / 1024.0;

  for (const auto &[Name, Value] : Out)
    emit("metric " + Name + " " + formatNumber(Value));
  emit("reps " + std::to_string(Reps) + " " + formatNumber(secondsSince(T0)));
  emit("campaigns " + std::to_string(Records.size()) + " " +
       std::to_string(Failed));
  return 0;
}

//===----------------------------------------------------------------------===//
// Parent: spawn one child per workload, time set-up, report
//===----------------------------------------------------------------------===//

/// Set-up is measured this many times per workload (the measuring child
/// included) and reported as the median.
constexpr int SetupSamples = 21;

struct ChildOutput {
  bool Ok = false;
  double SetupS = 0;
  std::vector<std::string> Lines;
};

/// Runs this binary with \p Args, its stdout on a pipe. The set-up time is
/// from the spawn to the child's "ready" line.
ChildOutput spawnChild(const std::vector<std::string> &Args) {
  ChildOutput Out;
  int Fds[2];
  if (pipe2(Fds, O_CLOEXEC) != 0) {
    std::perror("pfuzz_bench: pipe");
    return Out;
  }
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Fds[1], STDOUT_FILENO);
  std::vector<char *> Argv;
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  pid_t Pid = 0;
  auto T0 = std::chrono::steady_clock::now();
  int Err = posix_spawn(&Pid, "/proc/self/exe", &Actions, nullptr, Argv.data(),
                        environ);
  posix_spawn_file_actions_destroy(&Actions);
  close(Fds[1]);
  if (Err != 0) {
    std::fprintf(stderr, "pfuzz_bench: spawn: %s\n", std::strerror(Err));
    close(Fds[0]);
    return Out;
  }
  std::FILE *In = fdopen(Fds[0], "r");
  char *Buf = nullptr;
  size_t Cap = 0;
  bool Ready = false;
  for (ssize_t N; (N = getline(&Buf, &Cap, In)) > 0;) {
    std::string Line(Buf, static_cast<size_t>(N));
    if (Line.back() == '\n')
      Line.pop_back();
    if (!Ready && Line == "ready") {
      Out.SetupS = secondsSince(T0);
      Ready = true;
      continue;
    }
    Out.Lines.push_back(Line);
  }
  std::free(Buf);
  std::fclose(In);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  Out.Ok = Ready && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  if (!Out.Ok)
    std::fprintf(stderr, "pfuzz_bench: child %s exited abnormally\n",
                 Args.size() > 2 ? Args[2].c_str() : "?");
  return Out;
}

struct WorkloadResult {
  std::string Name;
  bool Correct = false;
  uint64_t Attempted = 0, Failed = 0;
  size_t Reps = 0;
  double MeasuredS = 0;
  std::vector<double> SetupSamples;
  std::map<std::string, double> Metrics;
  std::vector<std::string> Failures;
  std::vector<std::string> Accounting;
};

WorkloadResult runWorkload(const Options &O, const std::string &Name) {
  WorkloadResult WR;
  WR.Name = Name;
  std::vector<std::string> Args = {"pfuzz_bench", "--workload", Name,
                                   "--seed", std::to_string(O.Seed), "--child"};
  if (O.Seconds > 0)
    Args.insert(Args.end(), {"--seconds", formatNumber(O.Seconds)});
  if (O.Smoke)
    Args.push_back("--smoke");
  if (O.Trace)
    Args.push_back("--trace=" + O.TraceFile);

  // Set-up samples are taken before and after the measuring child, so
  // they see the machine at both ends of the run.
  std::vector<std::string> SetupArgs = Args;
  SetupArgs.push_back("--setup-only");
  bool Ok = true;
  auto SampleSetup = [&](int N) {
    for (int I = 0; I != N; ++I) {
      ChildOutput S = spawnChild(SetupArgs);
      Ok &= S.Ok;
      WR.SetupSamples.push_back(S.SetupS);
    }
  };
  SampleSetup(SetupSamples / 2);
  ChildOutput C = spawnChild(Args);
  Ok &= C.Ok;
  WR.SetupSamples.push_back(C.SetupS);
  SampleSetup(SetupSamples - 1 - SetupSamples / 2);

  bool SawCampaigns = false;
  for (const std::string &Line : C.Lines) {
    char Key[64] = {};
    double V = 0;
    unsigned long long A = 0, F = 0;
    if (Line.rfind("metric ", 0) == 0 &&
        std::sscanf(Line.c_str(), "metric %63s %lf", Key, &V) == 2) {
      WR.Metrics[Key] = V;
    } else if (std::sscanf(Line.c_str(), "campaigns %llu %llu", &A, &F) == 2) {
      WR.Attempted = A;
      WR.Failed = F;
      SawCampaigns = true;
    } else if (std::sscanf(Line.c_str(), "reps %llu %lf", &A, &V) == 2) {
      WR.Reps = A;
      WR.MeasuredS = V;
    } else if (Line.rfind("fail ", 0) == 0) {
      WR.Failures.push_back(Line.substr(5));
    } else if (Line.rfind("accounting ", 0) == 0) {
      WR.Accounting.push_back(Line.substr(11));
    }
  }
  WR.Metrics["setup_s"] = median(WR.SetupSamples);
  WR.Correct = Ok && SawCampaigns && WR.Failed == 0 && WR.Attempted > 0;
  return WR;
}

std::string metricsJson(const WorkloadResult &WR,
                        const std::vector<const MetricDef *> &Defs) {
  std::string Out = "{";
  for (const MetricDef *D : Defs) {
    auto It = WR.Metrics.find(D->Name);
    if (It == WR.Metrics.end())
      continue;
    if (Out.size() > 1)
      Out += ", ";
    Out += jsonString(D->Name) + ": {\"value\": " + formatNumber(It->second) +
           ", \"unit\": " + jsonString(D->Unit) + "}";
  }
  return Out + "}";
}

std::vector<const MetricDef *> allDefs() {
  std::vector<const MetricDef *> Defs;
  for (const MetricDef &M : EndToEnd)
    Defs.push_back(&M);
  for (const MetricDef &M : PerLayer)
    Defs.push_back(&M);
  return Defs;
}

#ifdef __clang__
constexpr const char *CompilerName = "clang " __clang_version__;
#else
constexpr const char *CompilerName = "GCC " __VERSION__;
#endif

bool writeResults(const Options &O, const std::vector<WorkloadResult> &All) {
  std::FILE *F = std::fopen(O.Results.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "pfuzz_bench: cannot write %s\n", O.Results.c_str());
    return false;
  }
  auto List = [](const auto &V) {
    std::string Out = "[";
    for (const auto &E : V) {
      if constexpr (std::is_same_v<std::decay_t<decltype(E)>, double>)
        Out += (Out.size() > 1 ? ", " : "") + formatNumber(E);
      else
        Out += (Out.size() > 1 ? ", " : "") + jsonString(E);
    }
    return Out + "]";
  };
  std::string J = "{\n  \"seed\": " + std::to_string(O.Seed) +
                  ",\n  \"trace\": " + (O.Trace ? "true" : "false") +
                  ",\n  \"smoke\": " + (O.Smoke ? "true" : "false") +
                  ",\n  \"seconds\": " + formatNumber(O.Seconds) +
                  ",\n  \"nproc\": " +
                  std::to_string(std::thread::hardware_concurrency()) +
                  ",\n  \"compiler\": " + jsonString(CompilerName) +
                  ",\n  \"build_type\": " + jsonString(PFUZZ_BENCH_BUILD_TYPE) +
                  ",\n  \"workloads\": {";
  for (size_t I = 0; I != All.size(); ++I) {
    const WorkloadResult &WR = All[I];
    J += std::string(I ? "," : "") + "\n    " + jsonString(WR.Name) +
         ": {\"correct\": " + (WR.Correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(WR.Attempted) +
         ", \"failed\": " + std::to_string(WR.Failed) +
         ", \"reps\": " + std::to_string(WR.Reps) +
         ", \"measured_s\": " + formatNumber(WR.MeasuredS) +
         ",\n      \"setup_samples_s\": " + List(WR.SetupSamples) +
         ",\n      \"failures\": " + List(WR.Failures) +
         ",\n      \"accounting\": " + List(WR.Accounting) +
         ",\n      \"metrics\": " + metricsJson(WR, allDefs()) + "}";
  }
  J += "\n  }\n}\n";
  bool Ok = std::fputs(J.c_str(), F) >= 0;
  Ok &= std::fclose(F) == 0;
  return Ok;
}

int runParent(const Options &O) {
  if (O.Trace)
    if (std::FILE *F = std::fopen(O.TraceFile.c_str(), "w"))
      std::fclose(F); // children append one record per campaign
  std::vector<WorkloadResult> All;
  for (const std::string &Name : O.Workloads) {
    All.push_back(runWorkload(O, Name));
    const WorkloadResult &WR = All.back();
    std::printf("== %s: seed %llu, %zu reps in %.1f s, %llu/%llu campaigns "
                "failed%s\n",
                WR.Name.c_str(), static_cast<unsigned long long>(O.Seed),
                WR.Reps, WR.MeasuredS,
                static_cast<unsigned long long>(WR.Failed),
                static_cast<unsigned long long>(WR.Attempted),
                WR.Correct ? "" : "  ** INCORRECT **");
    for (const MetricDef *D : allDefs())
      if (auto It = WR.Metrics.find(D->Name); It != WR.Metrics.end())
        std::printf("  %-34s %16s %s\n", D->Name,
                    formatNumber(It->second).c_str(), D->Unit);
    std::fflush(stdout);
  }
  bool Written = writeResults(O, All);

  // The headline line: end-to-end metrics untraced, per-layer traced.
  std::vector<const MetricDef *> Defs;
  if (O.Trace)
    for (const MetricDef &M : PerLayer)
      Defs.push_back(&M);
  else
    for (const MetricDef &M : EndToEnd)
      Defs.push_back(&M);
  bool Correct = Written;
  uint64_t Attempted = 0, Failed = 0;
  std::string Metrics;
  for (const WorkloadResult &WR : All) {
    Correct &= WR.Correct;
    Attempted += WR.Attempted;
    Failed += WR.Failed;
    std::string M = metricsJson(WR, Defs);
    if (All.size() == 1) {
      Metrics = M;
      continue;
    }
    Metrics += (Metrics.empty() ? "{" : ", ") + jsonString(WR.Name) + ": " + M;
  }
  if (All.size() != 1)
    Metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Metrics.c_str());
  return Correct ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseOptions(Argc, Argv);
  return O.Child ? runChild(O) : runParent(O);
}
