//===- core/Heuristic.cpp - Algorithm 1 search heuristic ------------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Heuristic.h"

#include <algorithm>

using namespace pfuzz;

double pfuzz::heuristicScore(const HeuristicInputs &In,
                             const HeuristicOptions &Opt) {
  double Cov = In.NewBranches;
  if (Opt.LengthPenalty)
    Cov -= In.InputLen;
  if (Opt.ReplacementBonus)
    Cov += 2.0 * In.ReplacementLen;
  if (Opt.StackSizeTerm)
    Cov -= In.AvgStackSize;
  if (Opt.ParentCountTerm)
    Cov -= In.NumParents;
  // Path-novelty ranking (Section 3.2): inputs whose parse path was seen
  // often sink in the queue. Capped so a hot path cannot dominate the
  // coverage signal entirely.
  if (Opt.PathNovelty)
    Cov -= std::min<uint32_t>(In.PathCount, 24);
  return Cov;
}

double pfuzz::heuristicScore(const CandidateFeatures &F,
                             const HeuristicOptions &Opt) {
  HeuristicInputs In;
  In.NewBranches = F.NewBranches;
  In.InputLen = F.InputLen;
  In.ReplacementLen = F.ReplacementLen;
  In.AvgStackSize = F.AvgStackSize;
  In.NumParents = F.NumParents;
  In.PathCount = F.PathCount;
  return heuristicScore(In, Opt);
}
