//===- lp/BranchBound.h - 0/1 MIP solver ------------------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Branch & bound over the simplex relaxation for problems whose integer
/// variables are all binary (exactly the shape of the paper's Section 4
/// model after linearization), with bound pruning, pseudo-cost
/// branching (most-fractional until costs are observed) and an
/// LP-rounding incumbent heuristic.
///
/// The search is depth-first: the open list is a stack, and a branch
/// pushes the child the relaxation leans towards last, so the search
/// dives into that half. Every node is one bound change from the one
/// before, so the warm dual repair stays local and the retained tableau
/// pays for itself. Best-bound and dive-then-best-bound orders were
/// measured on the campaign grids: they explore fewer nodes but make more
/// dual pivots, give the same reports, and are no faster end to end.
///
/// Incumbents are installed under a canonical order — a candidate
/// replaces the current best only when its objective is strictly smaller,
/// or bit-equal with a lexicographically smaller assignment — so which of
/// several candidates survives never depends on the order the search
/// found them in, and the warm and cold paths agree on ties.
///
/// Solve once, branch cheap: each child node differs from its parent in
/// exactly one variable bound, which — with the bounded-variable tableau
/// — is an O(1) box update plus an O(rows) basic-value refresh that
/// leaves the parent basis dual feasible, so by default nodes are solved
/// by dual-simplex re-optimization of one evolving WarmStart tableau
/// instead of a fresh solve (SolverConfig::WarmNodes; both paths are
/// exact, so the answer is the same either way — MipSolution::Stats
/// records how each node was satisfied). A MipWarmStart additionally
/// carries that tableau and the branching pseudo-costs *across* solveMip
/// calls, so a sweep that only patches bounds or constraint RHS values
/// between solves — the knob axis of a placement campaign — re-optimizes
/// from its neighbour instead of starting over.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_LP_BRANCHBOUND_H
#define RAMLOC_LP_BRANCHBOUND_H

#include "lp/Simplex.h"
#include "lp/SolverConfig.h"

namespace ramloc {

/// MIP outcome. Status Optimal with Proven false means "best found within
/// the node budget"; Outcome is the one-word trust label derived from
/// (Status, Proven) that callers must propagate — a degraded answer is
/// never reported as SolveStatus::Optimal.
struct MipSolution {
  LpStatus Status = LpStatus::Infeasible;
  double Objective = 0.0;
  std::vector<double> Values;
  unsigned NodesExplored = 0;
  bool Proven = false;
  /// What this solve proved (see lp/SolverConfig.h). Optimal only when
  /// the incumbent's optimality was proven; FeasibleLimit when a
  /// cooperative limit (TimeLimitMs / NodeLimit / PivotLimit / MipMaxNodes)
  /// truncated the proof but an incumbent exists; InfeasibleProven when
  /// infeasibility was established; Aborted otherwise.
  SolveStatus Outcome = SolveStatus::Aborted;

  /// The solve's effort ledger, also published into the mip.* metrics
  /// counters.
  SolverStats Stats;

  bool feasible() const { return Status == LpStatus::Optimal; }
};

/// Per-variable branching history: the average objective degradation per
/// unit of fraction moved, one estimate per direction. A MipWarmStart
/// carries it from one solve to the next, so a knob chain's later points
/// branch on what the earlier trees learned; it is empty before the first
/// solve and cleared whenever the problem's shape changes.
struct PseudoCosts {
  std::vector<double> DownSum, UpSum;
  std::vector<unsigned> DownCnt, UpCnt;
  /// The shape the history was gathered on (variable count, constraint
  /// count, total terms: the test WarmStart applies to its tableau).
  unsigned NumVars = 0, NumCons = 0;
  size_t TermSum = 0;

  /// Clears the history unless it was gathered on \p P's shape.
  void fitTo(const LpProblem &P);
  void observe(unsigned Var, bool Up, double Degradation, double Dist);
  double estimate(unsigned Var, bool Up, double Fallback) const;
};

/// Cross-solve warm-start state for a structurally fixed problem whose
/// bounds or constraint RHS values change between solves. The LP tableau
/// and the pseudo-costs evolve in place across the search trees. Reuse
/// with a *structurally* different problem is detected and degrades to a
/// cold solve.
struct MipWarmStart {
  WarmStart Lp;
  PseudoCosts Branching;
};

/// Solves \p P to optimality (integer variables must be binary). With
/// \p Warm, re-optimizes from the previous solve's basis and branching
/// history and leaves the state primed for the next call.
MipSolution solveMip(const LpProblem &P, const SolverConfig &Cfg = {},
                     MipWarmStart *Warm = nullptr);

} // namespace ramloc

#endif // RAMLOC_LP_BRANCHBOUND_H
