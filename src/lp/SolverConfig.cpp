//===- lp/SolverConfig.cpp - unified solver knobs and counters ------------===//

#include "lp/SolverConfig.h"

#include "support/Format.h"

#include <iterator>

namespace ramloc {

namespace {
/// Indexed by SolveStatus.
constexpr const char *StatusNames[] = {"optimal", "feasible-limit",
                                       "infeasible-proven", "aborted"};
static_assert(std::size(StatusNames) ==
              static_cast<size_t>(SolveStatus::Aborted) + 1);
} // namespace

const char *solveStatusName(SolveStatus S) {
  return StatusNames[static_cast<size_t>(S)];
}

bool solveStatusFromName(const std::string &Name, SolveStatus &Out) {
  for (size_t I = 0; I != std::size(StatusNames); ++I)
    if (Name == StatusNames[I]) {
      Out = static_cast<SolveStatus>(I);
      return true;
    }
  return false;
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
