//===- lp/SolverConfig.cpp - unified solver knobs and counters ------------===//

#include "lp/SolverConfig.h"

#include "support/Format.h"

namespace ramloc {

const char *nodeOrderName(NodeOrder O) {
  switch (O) {
  case NodeOrder::Dfs:
    return "dfs";
  case NodeOrder::BestBound:
    return "best-bound";
  case NodeOrder::Hybrid:
    return "hybrid";
  }
  return "dfs";
}

bool nodeOrderFromName(const std::string &Name, NodeOrder &Out) {
  if (Name == "dfs")
    Out = NodeOrder::Dfs;
  else if (Name == "best-bound")
    Out = NodeOrder::BestBound;
  else if (Name == "hybrid")
    Out = NodeOrder::Hybrid;
  else
    return false;
  return true;
}

const char *pricingName(Pricing P) {
  switch (P) {
  case Pricing::SteepestEdge:
    return "steepest-edge";
  case Pricing::Dantzig:
    return "dantzig";
  case Pricing::Bland:
    return "bland";
  }
  return "steepest-edge";
}

bool pricingFromName(const std::string &Name, Pricing &Out) {
  if (Name == "steepest-edge")
    Out = Pricing::SteepestEdge;
  else if (Name == "dantzig")
    Out = Pricing::Dantzig;
  else if (Name == "bland")
    Out = Pricing::Bland;
  else
    return false;
  return true;
}

const char *solveStatusName(SolveStatus S) {
  switch (S) {
  case SolveStatus::Optimal:
    return "optimal";
  case SolveStatus::FeasibleLimit:
    return "feasible-limit";
  case SolveStatus::InfeasibleProven:
    return "infeasible-proven";
  case SolveStatus::Aborted:
    return "aborted";
  }
  return "aborted";
}

bool solveStatusFromName(const std::string &Name, SolveStatus &Out) {
  if (Name == "optimal")
    Out = SolveStatus::Optimal;
  else if (Name == "feasible-limit")
    Out = SolveStatus::FeasibleLimit;
  else if (Name == "infeasible-proven")
    Out = SolveStatus::InfeasibleProven;
  else if (Name == "aborted")
    Out = SolveStatus::Aborted;
  else
    return false;
  return true;
}

std::string solverConfigToken(const SolverConfig &Cfg) {
  return formatString(
      "lp:tol%.17g:it%u:%s:rf%u;mip:itol%.17g:mn%u:gap%.17g:%s:%s:pc%d;"
      "limits:t%u:n%llu:p%llu",
      Cfg.Tolerance, Cfg.MaxIterations, pricingName(Cfg.PricingRule),
      Cfg.RefactorInterval, Cfg.IntegerTolerance, Cfg.MaxNodes,
      Cfg.GapTolerance, Cfg.WarmNodes ? "warm" : "cold",
      nodeOrderName(Cfg.Order), Cfg.PseudoCostBranching ? 1 : 0,
      Cfg.TimeLimitMs, static_cast<unsigned long long>(Cfg.NodeLimit),
      static_cast<unsigned long long>(Cfg.PivotLimit));
}

} // namespace ramloc
