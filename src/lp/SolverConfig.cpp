//===- lp/SolverConfig.cpp - unified solver knobs and counters ------------===//

#include "lp/SolverConfig.h"

#include "support/Format.h"

namespace ramloc {

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
      "lp:tol%.17g:it%u:rf%u;mip:itol%.17g:mn%u:gap%.17g:%s;"
      "limits:t%u:n%llu:p%llu",
      LpTolerance, LpMaxIterations, LpRefactorInterval, MipIntegerTolerance,
      MipMaxNodes, MipGapTolerance, Cfg.WarmNodes ? "warm" : "cold",
      Cfg.TimeLimitMs, static_cast<unsigned long long>(Cfg.NodeLimit),
      static_cast<unsigned long long>(Cfg.PivotLimit));
}

} // namespace ramloc
