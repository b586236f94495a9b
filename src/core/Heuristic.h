//===- core/Heuristic.h - Algorithm 1 search heuristic -----------*- C++ -*-==//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The candidate-priority heuristic of Algorithm 1 (procedure `heur`,
/// lines 47-51):
///
///   cov =   |branches \ vBr|            (new coverage of the parent run)
///         - len(input)                  (avoid depth-first blowup)
///         + 2 * len(replacement)        (favour string-comparison splices)
///         - avgStackSize                (prefer inputs that close structures)
///         - numParents                  (prefer short substitution chains)
///         - pathPenalty                 (prefer unseen parse paths, §3.2)
///
/// Note on numParents: the paper's pseudocode adds it, but the prose says
/// "inputs with fewer parents but the same coverage should be ranked
/// higher", which under a pop-max queue requires subtraction; we follow
/// the prose. Every term can be disabled for the ablation bench.
///
/// The score is defined once, as the sum of two parts:
///
///   runTerm       — the terms every candidate of one executed run shares:
///                   new branches, stack depth, the run's parent-chain
///                   length and the path penalty;
///   candidateTerm — the terms fixed when the candidate is pushed: its
///                   length, its replacement and its extra parent link
///                   (1 for a substitution, 0 for a requeued prefix).
///
/// Every term is an integer except the average stack depth, which is the
/// mean of two integer depths, so both parts are integers or
/// half-integers and their floating-point sum is exact: splitting the
/// score changes no value, and the candidate store can recompute a whole
/// run group's share once per rescore (see core/CandidateStore.h).
///
//===----------------------------------------------------------------------===//

#ifndef PFUZZ_CORE_HEURISTIC_H
#define PFUZZ_CORE_HEURISTIC_H

#include <cstdint>

namespace pfuzz {

/// Feature switches for the heuristic terms (all on by default; the
/// ablation bench turns them off one at a time).
struct HeuristicOptions {
  bool LengthPenalty = true;
  bool ReplacementBonus = true;
  bool StackSizeTerm = true;
  bool ParentCountTerm = true;
  bool PathNovelty = true;
};

/// Inputs to one heuristic evaluation.
struct HeuristicInputs {
  /// |branches \ vBr| of the parent run, counted up to the last accepted
  /// character (Section 3.1).
  uint32_t NewBranches = 0;
  uint32_t InputLen = 0;
  uint32_t ReplacementLen = 0;
  double AvgStackSize = 0;
  uint32_t NumParents = 0;
  /// How many previous runs took the same parse path.
  uint32_t PathCount = 0;
};

/// Where the path penalty saturates: a path taken this often already
/// ranks as hot as any, so a hot path cannot drown the coverage signal.
/// Counts at or above it leave every score unchanged, so the campaign
/// reports only below-cap count moves to the candidate store.
constexpr uint32_t PathPenaltyCap = 24;

/// The run-constant part of the score: |branches \ vBr| - avgStackSize -
/// numParents - min(pathCount, PathPenaltyCap). \p NumParents is the
/// run's own parent-chain length; a candidate's extra link is in
/// candidateTerm.
double runTerm(uint32_t NewBranches, double AvgStackSize, uint32_t NumParents,
               uint32_t PathCount, const HeuristicOptions &Opt);

/// Whether one more execution of a path taken \p CountBefore times moves
/// runTerm: the penalty is on and has not saturated yet.
inline bool pathPenaltyMoves(uint32_t CountBefore,
                             const HeuristicOptions &Opt) {
  return Opt.PathNovelty && CountBefore < PathPenaltyCap;
}

/// The push-time part of the score: -len(input) + 2 * len(replacement) -
/// \p ParentDelta. Always an integer.
int64_t candidateTerm(uint32_t InputLen, uint32_t ReplacementLen,
                      uint32_t ParentDelta, const HeuristicOptions &Opt);

/// Computes the candidate score; the queue pops the maximum. Equal, bit
/// for bit, to runTerm + candidateTerm with ParentDelta 0.
double heuristicScore(const HeuristicInputs &In, const HeuristicOptions &Opt);

} // namespace pfuzz

#endif // PFUZZ_CORE_HEURISTIC_H
