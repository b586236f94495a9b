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

/// Computes the candidate score; the queue pops the maximum.
double heuristicScore(const HeuristicInputs &In, const HeuristicOptions &Opt);

/// A queued candidate as the compact store describes it: the same terms
/// as HeuristicInputs, but with the path-novelty count already resolved
/// by the caller (the store keeps path hashes, not counts — the campaign
/// owns the path table). Both the campaign's push-time scoring and the
/// store's rescore pass go through this one function, so a candidate's
/// score is computed identically no matter which layer asks.
struct CandidateFeatures {
  uint32_t NewBranches = 0;
  uint32_t InputLen = 0;
  uint32_t ReplacementLen = 0;
  double AvgStackSize = 0;
  uint32_t NumParents = 0;
  uint32_t PathCount = 0;
};

/// Scores a candidate described by its compact record features.
double heuristicScore(const CandidateFeatures &F, const HeuristicOptions &Opt);

} // namespace pfuzz

#endif // PFUZZ_CORE_HEURISTIC_H
