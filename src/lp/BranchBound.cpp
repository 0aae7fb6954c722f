//===- lp/BranchBound.cpp - 0/1 MIP solver ------------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "lp/BranchBound.h"

#include "support/Metrics.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cmath>
#include <iterator>
#include <limits>
#include <vector>

using namespace ramloc;

namespace {

/// An open node. Its box is the root's with the branchings on the path
/// down to it applied; the search keeps that box in one working pair of
/// bound vectors (see Fixing) instead of a copy per node.
struct Node {
  double Bound;      ///< parent LP objective: lower bound on this subtree
  int BranchVar = -1; ///< variable whose bound created this node
  bool BranchUp = false; ///< true: forced to 1; false: forced to 0
  double FracDist = 0.0; ///< fractional distance the branch moved it
  unsigned Depth = 0;    ///< branchings between the root and this node
};

/// One branching applied to the working bounds, with the box it
/// overwrote. The trail of them is the path from the root to the node
/// last solved; in a depth-first search the next node's parent is always
/// on that path, so undoing the trail down to the parent's depth and
/// applying the node's own branching gives exactly its box.
struct Fixing {
  unsigned Var;
  double Lower, Upper;
};

/// Rounds an LP point to the nearest binary assignment; returns true if
/// the rounded point is feasible. Cheap incumbent generator.
bool roundToFeasible(const LpProblem &P, const std::vector<double> &X,
                     std::vector<double> &Out) {
  Out = X;
  for (unsigned J = 0, E = P.numVariables(); J != E; ++J)
    if (P.Variables[J].Integer)
      Out[J] = Out[J] >= 0.5 ? 1.0 : 0.0;
  return P.isFeasible(Out);
}

/// Snaps every integral-within-tolerance integer variable to its exact
/// 0/1 value. Incumbents are canonicalized before they are compared or
/// stored, so the same binary assignment reached through two different
/// tableau histories (warm chains drift in the last bits) produces one
/// representative point.
void snapIntegers(const LpProblem &P, std::vector<double> &V, double IntTol) {
  for (unsigned J = 0, E = P.numVariables(); J != E; ++J) {
    if (!P.Variables[J].Integer)
      continue;
    double R = std::round(V[J]);
    if (std::abs(V[J] - R) <= IntTol)
      V[J] = R;
  }
}

/// The canonical incumbent order (see BranchBound.h): a candidate
/// replaces the current best only on a strictly smaller objective, or a
/// bit-equal objective with a lexicographically smaller assignment. The
/// relation is a total order on candidate points, so the surviving
/// incumbent is independent of the order candidates arrive in — which is
/// what keeps the warm and cold paths' answers consistent with each other.
bool canonicallyBetter(double Obj, const std::vector<double> &V, bool HaveCur,
                       double CurObj, const std::vector<double> &CurV) {
  if (!HaveCur)
    return true;
  if (Obj != CurObj)
    return Obj < CurObj;
  return std::lexicographical_compare(V.begin(), V.end(), CurV.begin(),
                                      CurV.end());
}

/// The solve's cooperative limits, resolved once at entry. Limits are
/// checked at node granularity — a node's LP solve always runs to its
/// own completion — so hitting one loses the optimality proof but never
/// corrupts state: the search simply stops expanding and keeps whatever
/// incumbent it holds. The node cap folds SolverConfig::NodeLimit into
/// the MipMaxNodes backstop (effective cap = min of the two).
struct SearchLimits {
  std::chrono::steady_clock::time_point Deadline{};
  bool HaveDeadline = false;
  uint64_t NodeCap = 0;
  uint64_t PivotCap = 0; ///< 0 = unlimited

  explicit SearchLimits(const SolverConfig &Cfg) {
    if (Cfg.TimeLimitMs) {
      HaveDeadline = true;
      Deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(Cfg.TimeLimitMs);
    }
    NodeCap = MipMaxNodes;
    if (Cfg.NodeLimit && Cfg.NodeLimit < NodeCap)
      NodeCap = Cfg.NodeLimit;
    PivotCap = Cfg.PivotLimit;
  }

  bool deadlinePassed() const {
    return HaveDeadline && std::chrono::steady_clock::now() >= Deadline;
  }
  bool pivotsExhausted(uint64_t PivotsSpent) const {
    return PivotCap != 0 && PivotsSpent >= PivotCap;
  }
};

/// Derives the one-word trust label from what the finished search
/// established. The mapping is deliberately conservative: any lost proof
/// demotes a feasible answer to FeasibleLimit, and anything without a
/// trustworthy point (unbounded relaxation, limit-before-incumbent,
/// root iteration limit) is Aborted — a degraded answer must never read
/// as Optimal downstream.
void finalizeOutcome(MipSolution &Sol) {
  if (Sol.Status == LpStatus::Optimal)
    Sol.Outcome =
        Sol.Proven ? SolveStatus::Optimal : SolveStatus::FeasibleLimit;
  else if (Sol.Status == LpStatus::Infeasible && Sol.Proven)
    Sol.Outcome = SolveStatus::InfeasibleProven;
  else
    Sol.Outcome = SolveStatus::Aborted;
}

/// Picks the branching variable for a fractional relaxation point.
/// Pseudo-cost scoring multiplies the estimated degradation of the two
/// children (the product rule); variables without history score with the
/// tree-wide average, so with no history at all the score is
/// Down x Up and the most fractional variable wins.
int pickBranchVariable(const LpProblem &P, const std::vector<double> &X,
                       const PseudoCosts &PC) {
  int BranchVar = -1;
  double BestScore = 0.0;

  // Tree-wide average per-unit degradation, the fallback estimate.
  double Sum = 0.0;
  unsigned Cnt = 0;
  for (unsigned J = 0, E = P.numVariables(); J != E; ++J) {
    if (PC.DownCnt[J]) {
      Sum += PC.DownSum[J] / PC.DownCnt[J];
      ++Cnt;
    }
    if (PC.UpCnt[J]) {
      Sum += PC.UpSum[J] / PC.UpCnt[J];
      ++Cnt;
    }
  }
  double Fallback = Cnt ? Sum / Cnt : 1.0;

  for (unsigned J = 0, E = P.numVariables(); J != E; ++J) {
    if (!P.Variables[J].Integer)
      continue;
    double V = X[J];
    double Down = V - std::floor(V);
    double Up = std::ceil(V) - V;
    if (std::min(Down, Up) <= MipIntegerTolerance)
      continue;
    double Score = std::max(Down * PC.estimate(J, false, Fallback), 1e-12) *
                   std::max(Up * PC.estimate(J, true, Fallback), 1e-12);
    if (BranchVar < 0 || Score > BestScore) {
      BranchVar = static_cast<int>(J);
      BestScore = Score;
    }
  }
  return BranchVar;
}

/// Splits \p N on \p BranchVar and pushes both children onto the
/// \p Open stack, closer side last: the search pops it next and dives
/// into the half the relaxation already leans towards.
void branchNode(const Node &N, int BranchVar, double Frac, double Bound,
                std::vector<Node> &Open) {
  Node Zero{Bound, BranchVar, false, Frac, N.Depth + 1};
  Node One{Bound, BranchVar, true, 1.0 - Frac, N.Depth + 1};
  if (Frac >= 0.5) {
    Open.push_back(Zero);
    Open.push_back(One);
  } else {
    Open.push_back(One);
    Open.push_back(Zero);
  }
}

/// The search proper. The public solveMip wraps this to stamp the
/// Outcome label and publish effort metrics on every exit path, so the
/// body is free to return early wherever the tree ends.
MipSolution solveMipImpl(const LpProblem &P, const SolverConfig &Cfg,
                         MipWarmStart *Warm) {
  MipSolution Best;
  Best.Proven = true; // until a node/pivot/time budget is hit

  // Resolve the cooperative limits once: the deadline anchors to this
  // call's entry, and the node cap folds NodeLimit into MipMaxNodes.
  SearchLimits Limits(Cfg);

  for ([[maybe_unused]] const LpVariable &V : P.Variables)
    assert((!V.Integer || (V.Lower >= 0.0 && V.Upper <= 1.0)) &&
           "only binary integer variables are supported");

  // The working box, the root's until a branching lands in it.
  std::vector<double> Lo(P.numVariables()), Hi(P.numVariables());
  for (unsigned J = 0, E = P.numVariables(); J != E; ++J) {
    Lo[J] = P.Variables[J].Lower;
    Hi[J] = P.Variables[J].Upper;
  }
  std::vector<Fixing> Trail;

  // Knob-axis reuse: the LP basis survives from the previous solve.
  WarmStart LocalWs;
  WarmStart &Ws = Warm ? Warm->Lp : LocalWs;
  Best.Stats.WarmStarted = Cfg.WarmNodes && Ws.valid();

  bool HaveIncumbent = false;

  // Branching history rides along a knob chain: a later point's tree
  // starts from what the earlier ones learned about each variable.
  PseudoCosts LocalPc;
  PseudoCosts &PC = Warm ? Warm->Branching : LocalPc;
  PC.fitTo(P);

  // The open list is a stack: depth-first diving.
  std::vector<Node> Open;
  Node Root;
  Root.Bound = -std::numeric_limits<double>::infinity();
  Open.push_back(Root);

  while (!Open.empty()) {
    // Cooperative limits, checked once per node between LP solves: the
    // node cap, the search-wide pivot budget spent so far, and the
    // wall-clock deadline. Breaking with nodes still open loses the
    // optimality proof but keeps the incumbent.
    if (Best.NodesExplored >= Limits.NodeCap ||
        Limits.pivotsExhausted(Best.Stats.PrimalPivots +
                               Best.Stats.DualPivots) ||
        Limits.deadlinePassed()) {
      Best.Proven = false;
      break;
    }
    Node N = Open.back();
    Open.pop_back();

    // Bound pruning against the incumbent.
    if (HaveIncumbent && N.Bound >= Best.Objective - MipGapTolerance)
      continue;

    // Move the working box to this node's.
    if (N.BranchVar >= 0) {
      while (Trail.size() >= N.Depth) {
        const Fixing &F = Trail.back();
        Lo[F.Var] = F.Lower;
        Hi[F.Var] = F.Upper;
        Trail.pop_back();
      }
      unsigned BV = static_cast<unsigned>(N.BranchVar);
      Trail.push_back({BV, Lo[BV], Hi[BV]});
      if (N.BranchUp)
        Lo[BV] = 1.0;
      else
        Hi[BV] = 0.0;
    }

    ++Best.NodesExplored;
    LpSolution Relax = Cfg.WarmNodes ? solveLpWarm(P, Lo, Hi, Ws)
                                     : solveLpWithBounds(P, Lo, Hi);
    Best.Stats += Relax.Effort;

    // Feed the branching history: this node's relaxation tells us what
    // its creating branch actually cost per unit of fraction moved.
    if (N.BranchVar >= 0 && std::isfinite(N.Bound) &&
        Relax.Status == LpStatus::Optimal)
      PC.observe(static_cast<unsigned>(N.BranchVar), N.BranchUp,
                 Relax.Objective - N.Bound, N.FracDist);

    if (Relax.Status == LpStatus::Infeasible)
      continue;
    if (Relax.Status == LpStatus::Unbounded) {
      // A bounded-binary MIP with unbounded relaxation direction in the
      // continuous part: treat as a hard failure.
      Best.Status = LpStatus::Unbounded;
      return Best;
    }
    if (Relax.Status == LpStatus::IterLimit) {
      Best.Proven = false;
      continue;
    }
    if (HaveIncumbent &&
        Relax.Objective >= Best.Objective - MipGapTolerance)
      continue;

    int BranchVar = pickBranchVariable(P, Relax.Values, PC);

    if (BranchVar < 0) {
      // Integral: candidate incumbent, installed under the canonical
      // order so the surviving point does not depend on arrival order.
      std::vector<double> Cand = std::move(Relax.Values);
      snapIntegers(P, Cand, MipIntegerTolerance);
      double Obj = P.objectiveValue(Cand);
      if (canonicallyBetter(Obj, Cand, HaveIncumbent, Best.Objective,
                            Best.Values)) {
        HaveIncumbent = true;
        Best.Status = LpStatus::Optimal;
        Best.Objective = Obj;
        Best.Values = std::move(Cand);
      }
      continue;
    }

    // Rounding heuristic for an early incumbent.
    std::vector<double> Rounded;
    if (!HaveIncumbent && roundToFeasible(P, Relax.Values, Rounded)) {
      double Obj = P.objectiveValue(Rounded);
      HaveIncumbent = true;
      Best.Status = LpStatus::Optimal;
      Best.Objective = Obj;
      Best.Values = std::move(Rounded);
    }

    double Frac = Relax.Values[static_cast<unsigned>(BranchVar)];
    branchNode(N, BranchVar, Frac, Relax.Objective, Open);
  }

  return Best;
}

} // namespace

void PseudoCosts::fitTo(const LpProblem &P) {
  size_t Terms = 0;
  for (const LpConstraint &C : P.Constraints)
    Terms += C.Terms.size();
  if (NumVars == P.numVariables() && NumCons == P.numConstraints() &&
      TermSum == Terms)
    return;
  NumVars = P.numVariables();
  NumCons = P.numConstraints();
  TermSum = Terms;
  DownSum.assign(NumVars, 0.0);
  UpSum.assign(NumVars, 0.0);
  DownCnt.assign(NumVars, 0);
  UpCnt.assign(NumVars, 0);
}

void PseudoCosts::observe(unsigned Var, bool Up, double Degradation,
                          double Dist) {
  double PerUnit = std::max(Degradation, 0.0) / std::max(Dist, 1e-6);
  if (Up) {
    UpSum[Var] += PerUnit;
    ++UpCnt[Var];
  } else {
    DownSum[Var] += PerUnit;
    ++DownCnt[Var];
  }
}

double PseudoCosts::estimate(unsigned Var, bool Up, double Fallback) const {
  unsigned Cnt = Up ? UpCnt[Var] : DownCnt[Var];
  if (Cnt == 0)
    return Fallback;
  return (Up ? UpSum[Var] : DownSum[Var]) / Cnt;
}

MipSolution ramloc::solveMip(const LpProblem &P, const SolverConfig &Cfg,
                             MipWarmStart *Warm) {
  MipSolution Sol = solveMipImpl(P, Cfg, Warm);
  finalizeOutcome(Sol);

  // Publish this solve's effort and outcome into the global metrics
  // registry, the one source campaign summaries, SolverEffortTest and
  // --metrics read, once per solve. The unconditional counters (one per
  // ledger row) are looked up by name once; the conditional ones are
  // created only when they first fire.
  MetricsRegistry &M = globalMetrics();
  static Counter &Solves = M.counter("mip.solves");
  static Counter &Nodes = M.counter("mip.nodes");
  static const auto Effort = [&M] {
    std::array<Counter *, std::size(SolverEffortRows)> C;
    for (size_t I = 0; I != C.size(); ++I)
      C[I] = &M.counter(SolverEffortRows[I].Key);
    return C;
  }();
  Solves.add();
  Nodes.add(Sol.NodesExplored);
  for (size_t I = 0; I != Effort.size(); ++I)
    Effort[I]->add(Sol.Stats.*SolverEffortRows[I].Member);
  if (Sol.Stats.WarmStarted)
    M.counter("mip.warm_starts").add();
  M.counter(std::string("mip.status.") + solveStatusName(Sol.Outcome)).add();
  return Sol;
}
