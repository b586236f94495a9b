//===- core/Heuristic.cpp - Algorithm 1 search heuristic ------------------===//
//
// Part of the pfuzz project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Heuristic.h"

#include <algorithm>

using namespace pfuzz;

double pfuzz::runTerm(uint32_t NewBranches, double AvgStackSize,
                      uint32_t NumParents, uint32_t PathCount,
                      const HeuristicOptions &Opt) {
  double Term = NewBranches;
  if (Opt.StackSizeTerm)
    Term -= AvgStackSize;
  if (Opt.ParentCountTerm)
    Term -= NumParents;
  // Path-novelty ranking (Section 3.2): inputs whose parse path was seen
  // often sink in the queue, up to the cap.
  if (Opt.PathNovelty)
    Term -= std::min(PathCount, PathPenaltyCap);
  return Term;
}

int64_t pfuzz::candidateTerm(uint32_t InputLen, uint32_t ReplacementLen,
                             uint32_t ParentDelta,
                             const HeuristicOptions &Opt) {
  int64_t Term = 0;
  if (Opt.LengthPenalty)
    Term -= InputLen;
  if (Opt.ReplacementBonus)
    Term += 2 * static_cast<int64_t>(ReplacementLen);
  if (Opt.ParentCountTerm)
    Term -= ParentDelta;
  return Term;
}

double pfuzz::heuristicScore(const HeuristicInputs &In,
                             const HeuristicOptions &Opt) {
  return runTerm(In.NewBranches, In.AvgStackSize, In.NumParents, In.PathCount,
                 Opt) +
         static_cast<double>(
             candidateTerm(In.InputLen, In.ReplacementLen, 0, Opt));
}
