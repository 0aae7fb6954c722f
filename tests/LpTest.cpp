//===- tests/LpTest.cpp - simplex and branch & bound -----------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "RandomMip.h"

#include "lp/BranchBound.h"
#include "lp/Simplex.h"
#include "support/Format.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

using namespace ramloc;

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), obj 36.
  // As minimization of the negated objective.
  LpProblem P;
  unsigned X = P.addVariable(0, 1e9, -3);
  unsigned Y = P.addVariable(0, 1e9, -5);
  P.addConstraint({{X, 1.0}}, ConstraintSense::LessEq, 4);
  P.addConstraint({{Y, 2.0}}, ConstraintSense::LessEq, 12);
  P.addConstraint({{X, 3.0}, {Y, 2.0}}, ConstraintSense::LessEq, 18);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[X], 2.0, 1e-7);
  EXPECT_NEAR(S.Values[Y], 6.0, 1e-7);
  EXPECT_NEAR(S.Objective, -36.0, 1e-7);
}

TEST(Simplex, EqualityAndGreaterConstraints) {
  // min x + y st x + y >= 2, x - y == 0  ->  x = y = 1.
  LpProblem P;
  unsigned X = P.addVariable(0, 100, 1);
  unsigned Y = P.addVariable(0, 100, 1);
  P.addConstraint({{X, 1.0}, {Y, 1.0}}, ConstraintSense::GreaterEq, 2);
  P.addConstraint({{X, 1.0}, {Y, -1.0}}, ConstraintSense::Equal, 0);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-7);
  EXPECT_NEAR(S.Values[Y], 1.0, 1e-7);
}

TEST(Simplex, InfeasibleDetected) {
  LpProblem P;
  unsigned X = P.addVariable(0, 10, 1);
  P.addConstraint({{X, 1.0}}, ConstraintSense::GreaterEq, 20);
  EXPECT_EQ(solveLp(P).Status, LpStatus::Infeasible);
}

TEST(Simplex, ContradictoryRowsInfeasible) {
  LpProblem P;
  unsigned X = P.addVariable(0, 10, 0);
  P.addConstraint({{X, 1.0}}, ConstraintSense::GreaterEq, 5);
  P.addConstraint({{X, 1.0}}, ConstraintSense::LessEq, 3);
  EXPECT_EQ(solveLp(P).Status, LpStatus::Infeasible);
}

TEST(Simplex, UnboundedDetected) {
  LpProblem P;
  unsigned X = P.addVariable(0, std::numeric_limits<double>::infinity(),
                             -1.0);
  (void)X;
  EXPECT_EQ(solveLp(P).Status, LpStatus::Unbounded);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x st x >= -5 (shifted variable handling).
  LpProblem P;
  unsigned X = P.addVariable(-5, 5, 1);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[X], -5.0, 1e-7);
}

TEST(Simplex, FixedVariableSubstitution) {
  // x fixed at 2 by bounds participates via the RHS only.
  LpProblem P;
  unsigned X = P.addVariable(2, 2, 1);
  unsigned Y = P.addVariable(0, 10, 1);
  P.addConstraint({{X, 1.0}, {Y, 1.0}}, ConstraintSense::GreaterEq, 5);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[X], 2.0, 1e-9);
  EXPECT_NEAR(S.Values[Y], 3.0, 1e-7);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Multiple redundant constraints through the optimum.
  LpProblem P;
  unsigned X = P.addVariable(0, 10, -1);
  P.addConstraint({{X, 1.0}}, ConstraintSense::LessEq, 5);
  P.addConstraint({{X, 2.0}}, ConstraintSense::LessEq, 10);
  P.addConstraint({{X, 3.0}}, ConstraintSense::LessEq, 15);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[X], 5.0, 1e-7);
}

/// Beale's classic cycling example: under naive Dantzig pricing with the
/// wrong tie-breaks, the simplex revisits the same degenerate bases
/// forever. The regression pins termination and optimality (both
/// simplexes fall back to Bland's rule on a stall).
/// Optimum: x = (1/25, 0, 1, 0), objective -1/20.
TEST(Simplex, BealeCyclingTerminates) {
  auto Build = [] {
    LpProblem P;
    double Inf = std::numeric_limits<double>::infinity();
    unsigned X1 = P.addVariable(0, Inf, -0.75);
    unsigned X2 = P.addVariable(0, Inf, 150.0);
    unsigned X3 = P.addVariable(0, Inf, -0.02);
    unsigned X4 = P.addVariable(0, Inf, 6.0);
    P.addConstraint({{X1, 0.25}, {X2, -60.0}, {X3, -0.04}, {X4, 9.0}},
                    ConstraintSense::LessEq, 0);
    P.addConstraint({{X1, 0.5}, {X2, -90.0}, {X3, -0.02}, {X4, 3.0}},
                    ConstraintSense::LessEq, 0);
    P.addConstraint({{X3, 1.0}}, ConstraintSense::LessEq, 1);
    return P;
  };

  LpProblem P = Build();
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Objective, -0.05, 1e-9);
  EXPECT_NEAR(S.Values[0], 0.04, 1e-7);
  EXPECT_NEAR(S.Values[2], 1.0, 1e-7);
  // The warm path must agree on the same degenerate-prone problem.
  WarmStart Ws;
  std::vector<double> Lo(P.numVariables()), Hi(P.numVariables());
  for (unsigned J = 0; J != P.numVariables(); ++J) {
    Lo[J] = P.Variables[J].Lower;
    Hi[J] = P.Variables[J].Upper;
  }
  LpSolution W = solveLpWarm(P, Lo, Hi, Ws);
  ASSERT_EQ(W.Status, LpStatus::Optimal);
  EXPECT_NEAR(W.Objective, -0.05, 1e-9);
}

/// The progress journal pins solverConfigToken(): every setting that can
/// move a degraded label must change the token, or a resume under a
/// different config would replay the wrong labels. The fixed solver
/// constants are spelled out too, so a build that edits one does not
/// replay an older build's journal.
TEST(SolverConfig, TokenChangesWithEverySolverSetting) {
  const std::string Base = solverConfigToken(SolverConfig());
  EXPECT_EQ(Base, solverConfigToken(SolverConfig())); // deterministic

  auto Changes = [&](auto Mutate, const char *Field) {
    SolverConfig Cfg;
    Mutate(Cfg);
    EXPECT_NE(solverConfigToken(Cfg), Base) << Field;
  };
  Changes([](SolverConfig &C) { C.WarmNodes = false; }, "WarmNodes");
  Changes([](SolverConfig &C) { C.TimeLimitMs = 5; }, "TimeLimitMs");
  Changes([](SolverConfig &C) { C.NodeLimit = 5; }, "NodeLimit");
  Changes([](SolverConfig &C) { C.PivotLimit = 5; }, "PivotLimit");

  for (const std::string &Part :
       {formatString("tol%.17g:", LpTolerance),
        formatString("it%u:", LpMaxIterations),
        formatString("rf%u;", LpRefactorInterval),
        formatString("itol%.17g:", MipIntegerTolerance),
        formatString("mn%u:", MipMaxNodes),
        formatString("gap%.17g:", MipGapTolerance)})
    EXPECT_NE(Base.find(Part), std::string::npos) << Part << " in " << Base;
}

TEST(Simplex, SolvedBasisIsExposed) {
  LpProblem P;
  unsigned X = P.addVariable(0, 1e9, -3);
  unsigned Y = P.addVariable(0, 1e9, -5);
  P.addConstraint({{X, 1.0}}, ConstraintSense::LessEq, 4);
  P.addConstraint({{Y, 2.0}}, ConstraintSense::LessEq, 12);
  P.addConstraint({{X, 3.0}, {Y, 2.0}}, ConstraintSense::LessEq, 18);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  // One basic column per tableau row, and with implicit bounds the
  // tableau has exactly one row per constraint — the [0, 1e9] boxes are
  // variable data, not rows (the explicit-bound-row formulation carried
  // 5 rows here).
  EXPECT_EQ(S.Basis.size(), 3u);
}

TEST(Simplex, BoundFlipReachesOptimumWithoutPivots) {
  // min -x - y st x + y <= 10, x,y in [0,1]: both variables just flip to
  // their upper bounds; the slack stays basic and no elimination runs.
  LpProblem P;
  unsigned X = P.addVariable(0, 1, -1);
  unsigned Y = P.addVariable(0, 1, -1);
  P.addConstraint({{X, 1.0}, {Y, 1.0}}, ConstraintSense::LessEq, 10);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[X], 1.0, 1e-9);
  EXPECT_NEAR(S.Values[Y], 1.0, 1e-9);
  EXPECT_NEAR(S.Objective, -2.0, 1e-9);
  EXPECT_EQ(S.Effort.BoundFlips, 2u);
  EXPECT_EQ(S.Basis, std::vector<unsigned>{2u}); // the slack never left
}

TEST(Simplex, BoundFlipInterleavesWithPivots) {
  // min -3a - b st 2a + b <= 2, a in [0,1], b in [0,3]: a flips to its
  // upper bound (ratio 1 on the row ties its span 1; the flip wins), then
  // b enters basically to soak up the remaining slack.
  LpProblem P;
  unsigned A = P.addVariable(0, 1, -3);
  unsigned B = P.addVariable(0, 3, -1);
  P.addConstraint({{A, 2.0}, {B, 1.0}}, ConstraintSense::LessEq, 2);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[A], 1.0, 1e-9);
  EXPECT_NEAR(S.Values[B], 0.0, 1e-9);
  EXPECT_NEAR(S.Objective, -3.0, 1e-9);
  EXPECT_GE(S.Effort.BoundFlips, 1u);
}

TEST(DualRatioTest, TiesBreakByLargerEntryThenLowerColumn) {
  // One >= row over five [0, 1] columns whose entries tie in pairs:
  //   0.5 x0 + x1 + 0.5 x2 + 0.25 x3 + x4 >= 2.75.
  // From x = 0 the row's slack is 2.75 over its bound, and every column
  // can repair it. The bound-flipping ratio test must take the
  // candidates in (ratio, -|a|, column) order: x1 and x4 (|a| = 1, x1
  // first), then x0 before x2 (|a| = 0.5, lower column first). x1, x4
  // and x0 flip to 1, leaving 0.25 of the violation, and x2 pivots in
  // at 0.5. Taking x2 before x0 would end with x0 = 0.5 and x2 = 1;
  // taking the smaller entries first would pivot x4 in instead. The
  // values are sums of powers of two, so they are exact.
  auto build = [](double X0Cost, double X1Cost, double X2Cost,
                  double X3Cost, double X4Cost, double Rhs) {
    LpProblem P;
    unsigned X0 = P.addVariable(0, 1, X0Cost);
    unsigned X1 = P.addVariable(0, 1, X1Cost);
    unsigned X2 = P.addVariable(0, 1, X2Cost);
    unsigned X3 = P.addVariable(0, 1, X3Cost);
    unsigned X4 = P.addVariable(0, 1, X4Cost);
    P.addConstraint({{X0, 0.5}, {X1, 1.0}, {X2, 0.5}, {X3, 0.25}, {X4, 1.0}},
                    ConstraintSense::GreaterEq, Rhs);
    return P;
  };
  const std::vector<double> Expected = {1.0, 1.0, 0.5, 0.0, 1.0};

  // Cold: the feasibility phase runs the dual under a zero objective, so
  // every candidate's ratio is 0 and only the entry and column order.
  LpSolution Cold = solveLp(build(0, 0, 0, 0, 0, 2.75));
  ASSERT_EQ(Cold.Status, LpStatus::Optimal);
  EXPECT_EQ(Cold.Effort.DualPivots, 1u);
  EXPECT_EQ(Cold.Effort.PrimalPivots, 0u);
  EXPECT_EQ(Cold.Effort.BoundFlips, 3u);
  EXPECT_EQ(Cold.Values, Expected);

  // Warm: an RHS patch re-optimized by the dual with real reduced costs.
  // Costs 1, 2, 1, 1, 2 give ratios 2, 2, 2, 4, 2: x3 falls behind on
  // ratio, and the other four tie on it and order as above.
  LpProblem P = build(1, 2, 1, 1, 2, -1);
  std::vector<double> Lo(5, 0.0), Hi(5, 1.0);
  WarmStart Ws;
  LpSolution First = solveLpWarm(P, Lo, Hi, Ws);
  ASSERT_EQ(First.Status, LpStatus::Optimal);
  EXPECT_EQ(First.Values, std::vector<double>(5, 0.0));
  P.Constraints[0].Rhs = 2.75;
  LpSolution Warm = resolveLpFromBasis(P, Lo, Hi, Ws);
  ASSERT_EQ(Warm.Status, LpStatus::Optimal);
  EXPECT_EQ(Warm.Effort.WarmNodeSolves, 1u);
  EXPECT_EQ(Warm.Effort.DualPivots, 1u);
  EXPECT_EQ(Warm.Effort.PrimalPivots, 0u);
  EXPECT_EQ(Warm.Effort.BoundFlips, 3u);
  EXPECT_EQ(Warm.Values, Expected);
  EXPECT_EQ(Warm.Objective, 5.5);
}

TEST(DualRatioTest, StalledRepairsFallBackToBland) {
  // Twelve columns in boxes 1.4e-9 wide and three >= rows with small
  // integer coefficients (right-hand sides 3.3, 3.3 and 1.3 box widths).
  // The rows are infeasible: 0.75, 0.75 and 1 times them sum to a row
  // whose left side reaches at most 2.5 box widths below its right side.
  // The feasibility phase (zero objective, so every ratio ties at 0)
  // cycles: each repair flips up to two columns and pivots one in, and
  // no pivot can move a column by as much as the 1e-9 stall threshold.
  // After rows + 16 = 19 stalled pivots in a row the dual switches to
  // Bland's pick (the first eligible movable column, no flips), which
  // breaks the cycle, and the next repair meets a row nothing can fix.
  // Without the switch the phase would spend its 100000-pivot budget.
  // The LP came from a search over such models; the counts are the
  // trace that search recorded.
  constexpr double W = 1.4e-9;
  LpProblem P;
  for (unsigned J = 0; J != 12; ++J)
    P.addVariable(0, W, 0.0);
  P.addConstraint({{0, 3}, {1, 3}, {2, -4}, {3, 2}, {4, -4}, {5, -1}, {7, -2},
                   {8, 3}, {9, -4}, {11, 3}},
                  ConstraintSense::GreaterEq, 4.6199999999999993e-09);
  P.addConstraint({{0, 1}, {1, 1}, {2, -2}, {3, 3}, {4, -3}, {5, 2}, {6, -4},
                   {7, 2}, {8, -4}, {9, 4}, {10, 2}, {11, -1}},
                  ConstraintSense::GreaterEq, 4.6199999999999993e-09);
  P.addConstraint({{0, -3}, {1, -3}, {2, 4}, {3, -3}, {4, 2}, {5, 2}, {6, -4},
                   {8, 1}, {9, -4}, {10, -4}, {11, -3}},
                  ConstraintSense::GreaterEq, 1.8199999999999999e-09);
  LpSolution S = solveLp(P);
  EXPECT_EQ(S.Status, LpStatus::Infeasible);
  EXPECT_EQ(S.Effort.DualPivots, 22u);
  EXPECT_EQ(S.Effort.PrimalPivots, 0u);
  EXPECT_EQ(S.Effort.BoundFlips, 20u);
  EXPECT_EQ(S.Effort.StuckCertified, 0u);
}

TEST(Simplex, FreeVariableSettlesInterior) {
  // min y st y >= x - 3, y >= 1 - x, x free, y free: optimum at the
  // kink x = 2, y = -1. Both variables start nonbasic-free at 0.
  double Inf = std::numeric_limits<double>::infinity();
  LpProblem P;
  unsigned X = P.addVariable(-Inf, Inf, 0);
  unsigned Y = P.addVariable(-Inf, Inf, 1);
  P.addConstraint({{Y, 1.0}, {X, -1.0}}, ConstraintSense::GreaterEq, -3);
  P.addConstraint({{Y, 1.0}, {X, 1.0}}, ConstraintSense::GreaterEq, 1);
  LpSolution S = solveLp(P);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[X], 2.0, 1e-7);
  EXPECT_NEAR(S.Values[Y], -1.0, 1e-7);
  EXPECT_NEAR(S.Objective, -1.0, 1e-7);
}

TEST(Simplex, FreeVariableUnboundedBelow) {
  double Inf = std::numeric_limits<double>::infinity();
  LpProblem P;
  unsigned X = P.addVariable(-Inf, Inf, 1); // min x, x free
  (void)X;
  EXPECT_EQ(solveLp(P).Status, LpStatus::Unbounded);
}

TEST(Simplex, InfeasibleBoundBoxDetected) {
  // Crossed bound overrides (branch & bound hands these to
  // solveLpWithBounds in principle) are infeasible by inspection.
  LpProblem P;
  unsigned A = P.addBinary(-1);
  unsigned B = P.addBinary(-1);
  P.addConstraint({{A, 1.0}, {B, 1.0}}, ConstraintSense::LessEq, 1);
  std::vector<double> Lo = {1, 0}, Hi = {0, 1}; // A's box is empty
  EXPECT_EQ(solveLpWithBounds(P, Lo, Hi).Status, LpStatus::Infeasible);
}

TEST(WarmLp, InfeasibleBoxPatchAndRecovery) {
  // A warm tableau patched to an empty box reports infeasible without
  // pivoting, stays re-optimizable, and recovers when the box widens.
  LpProblem P;
  unsigned A = P.addBinary(-5);
  unsigned B = P.addBinary(-3);
  P.addConstraint({{A, 2.0}, {B, 3.0}}, ConstraintSense::LessEq, 4);
  std::vector<double> Lo = {0, 0}, Hi = {1, 1};
  WarmStart Ws;
  ASSERT_EQ(solveLpWarm(P, Lo, Hi, Ws).Status, LpStatus::Optimal);
  Lo[A] = 1.0;
  Hi[A] = 0.0; // empty box
  LpSolution Crossed = solveLpWarm(P, Lo, Hi, Ws);
  EXPECT_EQ(Crossed.Status, LpStatus::Infeasible);
  EXPECT_EQ(Crossed.Effort.WarmNodeSolves, 1u);
  Lo[A] = 0.0;
  Hi[A] = 1.0;
  LpSolution Back = solveLpWarm(P, Lo, Hi, Ws);
  ASSERT_EQ(Back.Status, LpStatus::Optimal);
  EXPECT_NEAR(Back.Objective, -7.0, 1e-9); // A = 1, B = 2/3 again
}

TEST(WarmLp, FixedVariableViaBoundsNeverEnters) {
  // Fixing a variable through the override box (lb == ub) pins it while
  // the rest re-optimizes; warm and cold agree exactly.
  LpProblem P;
  unsigned A = P.addBinary(-10);
  unsigned B = P.addBinary(-6);
  unsigned C = P.addBinary(-4);
  P.addConstraint({{A, 5.0}, {B, 4.0}, {C, 3.0}}, ConstraintSense::LessEq,
                  9);
  std::vector<double> Lo = {0, 0, 0}, Hi = {1, 1, 1};
  WarmStart Ws;
  ASSERT_EQ(solveLpWarm(P, Lo, Hi, Ws).Status, LpStatus::Optimal);
  for (double V : {1.0, 0.0}) {
    Lo[B] = Hi[B] = V; // fix B at each bound in turn
    LpSolution Warm = solveLpWarm(P, Lo, Hi, Ws);
    LpSolution Cold = solveLpWithBounds(P, Lo, Hi);
    ASSERT_EQ(Warm.Status, LpStatus::Optimal);
    ASSERT_EQ(Cold.Status, LpStatus::Optimal);
    EXPECT_NEAR(Warm.Values[B], V, 1e-9);
    EXPECT_NEAR(Warm.Objective, Cold.Objective, 1e-9);
    Lo[B] = 0.0;
    Hi[B] = 1.0;
  }
}

TEST(WarmLp, ReoptimizesAfterBoundTightening) {
  // Binary-style knapsack relaxation: fixing a variable via its bound
  // rows must re-optimize from the retained basis (dual pivots, not a
  // fresh phase-1/2), and match the cold answer exactly.
  LpProblem P;
  unsigned A = P.addBinary(-10);
  unsigned B = P.addBinary(-6);
  unsigned C = P.addBinary(-4);
  P.addConstraint({{A, 5.0}, {B, 4.0}, {C, 3.0}}, ConstraintSense::LessEq,
                  9);
  std::vector<double> Lo = {0, 0, 0}, Hi = {1, 1, 1};

  WarmStart Ws;
  LpSolution Root = solveLpWarm(P, Lo, Hi, Ws);
  ASSERT_EQ(Root.Status, LpStatus::Optimal);
  EXPECT_EQ(Root.Effort.WarmNodeSolves, 0u);
  ASSERT_TRUE(Ws.valid());

  Hi[A] = 0.0; // branch A = 0
  LpSolution Child = solveLpWarm(P, Lo, Hi, Ws);
  ASSERT_EQ(Child.Status, LpStatus::Optimal);
  EXPECT_EQ(Child.Effort.WarmNodeSolves, 1u);
  LpSolution Cold = solveLpWithBounds(P, Lo, Hi);
  EXPECT_NEAR(Child.Objective, Cold.Objective, 1e-9);
  EXPECT_NEAR(Child.Values[A], 0.0, 1e-9);

  Hi[A] = 1.0;
  Lo[A] = 1.0; // backtrack and branch A = 1
  Child = solveLpWarm(P, Lo, Hi, Ws);
  ASSERT_EQ(Child.Status, LpStatus::Optimal);
  EXPECT_EQ(Child.Effort.WarmNodeSolves, 1u);
  Cold = solveLpWithBounds(P, Lo, Hi);
  EXPECT_NEAR(Child.Objective, Cold.Objective, 1e-9);
  EXPECT_NEAR(Child.Values[A], 1.0, 1e-9);
}

TEST(WarmLp, ReoptimizesAfterRhsPatch) {
  // The knob-axis pattern: only a constraint RHS changes between solves.
  LpProblem P;
  unsigned A = P.addBinary(-10);
  unsigned B = P.addBinary(-6);
  P.addConstraint({{A, 5.0}, {B, 4.0}}, ConstraintSense::LessEq, 9);
  std::vector<double> Lo = {0, 0}, Hi = {1, 1};

  WarmStart Ws;
  LpSolution First = solveLpWarm(P, Lo, Hi, Ws);
  ASSERT_EQ(First.Status, LpStatus::Optimal);
  EXPECT_NEAR(First.Objective, -16.0, 1e-9); // both fit

  P.Constraints[0].Rhs = 5.0; // tighten the budget
  LpSolution Patched = resolveLpFromBasis(P, Lo, Hi, Ws);
  ASSERT_EQ(Patched.Status, LpStatus::Optimal);
  EXPECT_EQ(Patched.Effort.WarmNodeSolves, 1u);
  LpSolution Cold = solveLp(P);
  EXPECT_NEAR(Patched.Objective, Cold.Objective, 1e-9);

  P.Constraints[0].Rhs = 9.0; // and loosen it again
  Patched = resolveLpFromBasis(P, Lo, Hi, Ws);
  ASSERT_EQ(Patched.Status, LpStatus::Optimal);
  EXPECT_NEAR(Patched.Objective, -16.0, 1e-9);
}

TEST(WarmLp, RefactorizationPreservesBasisAcrossWarmChain) {
  // The cadence rebuild fires after LpRefactorInterval * (rows + vars +
  // 1) pivots. The rebuild must re-eliminate the *current* basis in
  // place -- the chained solves stay warm (dual re-optimization, not a
  // cold phase-1/2 restart) and keep matching the cold answers exactly.
  LpProblem P;
  unsigned A = P.addBinary(-10);
  unsigned B = P.addBinary(-6);
  unsigned C = P.addBinary(-4);
  P.addConstraint({{A, 5.0}, {B, 4.0}, {C, 3.0}}, ConstraintSense::LessEq,
                  9);
  // One row, three variables: the cadence fires past 4 x 5 = 20 pivots.
  const unsigned Threshold = LpRefactorInterval * (1 + 3 + 1);
  std::vector<double> Lo = {0, 0, 0}, Hi = {1, 1, 1};

  WarmStart Ws;
  ASSERT_EQ(solveLpWarm(P, Lo, Hi, Ws).Status, LpStatus::Optimal);

  bool SawRefactor = false;
  unsigned Pivots = 0;
  for (unsigned Round = 0; Round != 48; ++Round) {
    unsigned V = Round % 3;
    Lo[V] = Hi[V] = double(Round % 2); // fix one binary, alternating
    LpSolution Warm = solveLpWarm(P, Lo, Hi, Ws);
    LpSolution Cold = solveLpWithBounds(P, Lo, Hi);
    ASSERT_EQ(Warm.Status, Cold.Status) << "round " << Round;
    if (Warm.Status == LpStatus::Optimal) {
      EXPECT_NEAR(Warm.Objective, Cold.Objective, 1e-9)
          << "round " << Round;
    }
    EXPECT_EQ(Warm.Effort.WarmNodeSolves, 1u) << "round " << Round;
    SawRefactor |= Warm.Effort.Refactorizations != 0;
    Pivots += Warm.Effort.PrimalPivots + Warm.Effort.DualPivots;
    Lo[V] = 0.0;
    Hi[V] = 1.0; // backtrack for the next round
  }
  // The chain pivots well past the interval, so at least one solve must
  // have gone through the in-place refactorization.
  EXPECT_GT(Pivots, Threshold);
  EXPECT_TRUE(SawRefactor);
}

TEST(WarmLp, DetectsInfeasibilityAfterTightening) {
  LpProblem P;
  unsigned A = P.addBinary(0.0);
  unsigned B = P.addBinary(0.0);
  P.addConstraint({{A, 1.0}, {B, 1.0}}, ConstraintSense::GreaterEq, 2);
  std::vector<double> Lo = {0, 0}, Hi = {1, 1};
  WarmStart Ws;
  ASSERT_EQ(solveLpWarm(P, Lo, Hi, Ws).Status, LpStatus::Optimal);
  Hi[A] = 0.0; // now A + B >= 2 needs A = 1
  EXPECT_EQ(solveLpWarm(P, Lo, Hi, Ws).Status, LpStatus::Infeasible);
  // Loosening must recover, whichever path (dual-proven infeasibility
  // keeps the basis; a rebuild re-solves cold).
  Hi[A] = 1.0;
  EXPECT_EQ(solveLpWarm(P, Lo, Hi, Ws).Status, LpStatus::Optimal);
}

TEST(WarmLp, RepairThatGivesUpIsCountedWithItsRebuild) {
  // Two >= rows, both met at RHS 0 by the all-zero root. Patching them
  // to 1.5 and 5e-7 leaves the dual two rows to repair: x0 + x1 >= 1.5
  // takes one pivot (x0 flips to 1, x1 enters at 0.5), and the second
  // row, whose only movable entry is x2's 1e-12, is stuck: its 5e-7
  // violation is above what a repair may leave but below what a
  // certificate may prove. The warm repair gives up (IterLimit), and
  // solveLpWarm rebuilds cold, which meets the same stuck row. The
  // reported effort is both attempts' and one refactorization.
  LpProblem P;
  unsigned X0 = P.addVariable(0, 1, 1, /*Integer=*/false);
  unsigned X1 = P.addVariable(0, 1, 1, /*Integer=*/false);
  unsigned X2 = P.addVariable(0, 1, 1, /*Integer=*/false);
  unsigned Y = P.addVariable(0, 0, 0, /*Integer=*/false);
  P.addConstraint({{X0, 1.0}, {X1, 1.0}}, ConstraintSense::GreaterEq, 0);
  P.addConstraint({{Y, 1.0}, {X2, 1e-12}}, ConstraintSense::GreaterEq, 0);
  std::vector<double> Lo = {0, 0, 0, 0}, Hi = {1, 1, 1, 0};
  WarmStart Ws, Twin;
  ASSERT_EQ(solveLpWarm(P, Lo, Hi, Ws).Status, LpStatus::Optimal);
  ASSERT_EQ(solveLpWarm(P, Lo, Hi, Twin).Status, LpStatus::Optimal);
  P.Constraints[0].Rhs = 1.5;
  P.Constraints[1].Rhs = 5e-7;

  // The warm attempt on its own, from an identical tableau.
  LpSolution Attempt = resolveLpFromBasis(P, Lo, Hi, Twin);
  ASSERT_EQ(Attempt.Status, LpStatus::IterLimit);
  EXPECT_EQ(Attempt.Effort.DualPivots, 1u);
  EXPECT_EQ(Attempt.Effort.BoundFlips, 1u);
  EXPECT_EQ(Attempt.Effort.WarmNodeSolves, 0u);
  LpSolution Rebuild = solveLpWithBounds(P, Lo, Hi);
  ASSERT_EQ(Rebuild.Status, LpStatus::IterLimit);

  LpSolution S = solveLpWarm(P, Lo, Hi, Ws);
  ASSERT_EQ(S.Status, LpStatus::IterLimit);
  SolverEffort Expected = Attempt.Effort;
  Expected += Rebuild.Effort;
  ++Expected.Refactorizations;
  for (const SolverEffortRow &Row : SolverEffortRows)
    EXPECT_EQ(S.Effort.*Row.Member, Expected.*Row.Member) << Row.Key;
  EXPECT_EQ(S.Effort.DualPivots, 2u);
  EXPECT_EQ(S.Effort.ColdNodeSolves, 1u);
}

TEST(WarmLp, ResolveWithoutBasisReportsIterLimit) {
  LpProblem P;
  (void)P.addBinary(-1);
  std::vector<double> Lo = {0}, Hi = {1};
  WarmStart Ws;
  EXPECT_FALSE(Ws.valid());
  EXPECT_EQ(resolveLpFromBasis(P, Lo, Hi, Ws).Status,
            LpStatus::IterLimit);
}

TEST(Mip, SimpleKnapsack) {
  // max 10a + 6b + 4c st 5a + 4b + 3c <= 9 -> {a, b} wait: a+b = 16,
  // weight 9 feasible; optimal is a+b = 16.
  LpProblem P;
  unsigned A = P.addBinary(-10);
  unsigned B = P.addBinary(-6);
  unsigned C = P.addBinary(-4);
  P.addConstraint({{A, 5.0}, {B, 4.0}, {C, 3.0}}, ConstraintSense::LessEq,
                  9);
  MipSolution S = solveMip(P);
  ASSERT_TRUE(S.feasible());
  EXPECT_TRUE(S.Proven);
  EXPECT_NEAR(S.Objective, -16.0, 1e-7);
  EXPECT_NEAR(S.Values[A], 1.0, 1e-7);
  EXPECT_NEAR(S.Values[B], 1.0, 1e-7);
  EXPECT_NEAR(S.Values[C], 0.0, 1e-7);
}

TEST(Mip, IntegralityMatters) {
  // LP relaxation would take half of a big item; MIP must not.
  LpProblem P;
  unsigned A = P.addBinary(-10);
  unsigned B = P.addBinary(-4);
  P.addConstraint({{A, 10.0}, {B, 5.0}}, ConstraintSense::LessEq, 5);
  MipSolution S = solveMip(P);
  ASSERT_TRUE(S.feasible());
  EXPECT_NEAR(S.Objective, -4.0, 1e-7);
  EXPECT_NEAR(S.Values[A], 0.0, 1e-7);
}

TEST(Mip, InfeasibleMip) {
  LpProblem P;
  unsigned A = P.addBinary(-1);
  P.addConstraint({{A, 1.0}}, ConstraintSense::GreaterEq, 2);
  MipSolution S = solveMip(P);
  EXPECT_FALSE(S.feasible());
}

TEST(Mip, MixedContinuousBinary) {
  // min -x - 10b st x <= 3 + 2b, x <= 4.5, b binary.
  LpProblem P;
  unsigned X = P.addVariable(0, 4.5, -1);
  unsigned B = P.addBinary(-10);
  P.addConstraint({{X, 1.0}, {B, -2.0}}, ConstraintSense::LessEq, 3);
  MipSolution S = solveMip(P);
  ASSERT_TRUE(S.feasible());
  EXPECT_NEAR(S.Values[B], 1.0, 1e-7);
  EXPECT_NEAR(S.Values[X], 4.5, 1e-7);
}

TEST(LpProblem, FeasibilityChecker) {
  LpProblem P;
  unsigned A = P.addBinary(-1);
  unsigned B = P.addBinary(-1);
  P.addConstraint({{A, 1.0}, {B, 1.0}}, ConstraintSense::LessEq, 1);
  EXPECT_TRUE(P.isFeasible({1, 0}));
  EXPECT_TRUE(P.isFeasible({0, 1}));
  EXPECT_FALSE(P.isFeasible({1, 1}));
  EXPECT_FALSE(P.isFeasible({2, 0})); // bound violation
  EXPECT_FALSE(P.isFeasible({1}));    // wrong arity
  EXPECT_DOUBLE_EQ(P.objectiveValue({1, 0}), -1.0);
}

/// Property sweep: the MIP solver matches brute force on random knapsacks
/// with side constraints.
class MipRandomized : public ::testing::TestWithParam<int> {};

TEST_P(MipRandomized, MatchesBruteForce) {
  SplitMix64 Rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  LpProblem P = randomKnapsack(Rng, /*MinVars=*/4);

  double Reference = bruteForceOptimum(P);
  // Warm and cold node solves are both exact and must agree with brute
  // force.
  for (bool WarmNodes : {false, true}) {
    SolverConfig Opts;
    Opts.WarmNodes = WarmNodes;
    MipSolution S = solveMip(P, Opts);
    ASSERT_TRUE(S.feasible()); // all-zeros is always feasible here
    EXPECT_TRUE(S.Proven);
    EXPECT_NEAR(S.Objective, Reference, 1e-6)
        << (WarmNodes ? "warm" : "cold") << " nodes";
    EXPECT_TRUE(P.isFeasible(S.Values));
    if (WarmNodes)
      EXPECT_EQ(S.Stats.ColdNodeSolves + S.Stats.WarmNodeSolves,
                S.NodesExplored);
    else
      EXPECT_EQ(S.Stats.ColdNodeSolves, S.NodesExplored);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MipRandomized, ::testing::Range(0, 25));

TEST(Mip, WarmStartChainsAcrossRhsPatches) {
  // The knob-axis shape: one problem, the budget row's RHS swept; each
  // solve after the first re-optimizes the previous basis.
  LpProblem P = [] {
    LpProblem Q;
    for (int J = 0; J != 8; ++J)
      Q.addBinary(-(5.0 + J));
    std::vector<std::pair<unsigned, double>> Terms;
    for (unsigned J = 0; J != 8; ++J)
      Terms.push_back({J, double(2 + J % 4)});
    Q.addConstraint(std::move(Terms), ConstraintSense::LessEq, 10);
    return Q;
  }();

  MipWarmStart Warm;
  bool First = true;
  for (double Budget : {10.0, 6.0, 14.0, 3.0, 10.0}) {
    P.Constraints[0].Rhs = Budget;
    MipSolution Cold = solveMip(P, [] {
      SolverConfig O;
      O.WarmNodes = false;
      return O;
    }());
    MipSolution W = solveMip(P, {}, &Warm);
    ASSERT_EQ(Cold.feasible(), W.feasible()) << "budget " << Budget;
    EXPECT_NEAR(W.Objective, Cold.Objective, 1e-9) << "budget " << Budget;
    EXPECT_EQ(W.Stats.WarmStarted, !First);
    First = false;
  }
}

/// Badly scaled budget rows beside +-1 rows are where the dual simplex
/// meets rows whose only eligible pivots are round-off. Every knob point
/// of a warm chain must still be proved optimal (no limit is set, so a
/// FeasibleLimit label would be a lost proof) with an assignment whose
/// cheapest completion is the brute-force optimum (the solve's own
/// continuous values carry ~1e-9 relative round-off at this scale), and
/// every node relaxation a stuck-row certificate calls infeasible must be
/// infeasible to a fresh cold solve too.
TEST(StuckRows, ScaledBudgetSweepProvesEveryPointAndCertifiesSoundly) {
  unsigned Certified = 0, Points = 0;
  for (uint64_t Seed = 0; Seed != 40; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    SplitMix64 Rng(Seed * 104729 + 7);
    ScaledModel M = scaledModel(Rng);
    LpProblem &P = M.P;
    // Objectives are sums of ~1e7 terms: compare at that scale.
    double Scale = 0.0;
    for (const LpVariable &V : P.Variables)
      Scale += std::abs(V.Objective);

    // A knob chain, loosest point first, then random budgets.
    MipWarmStart Warm;
    for (unsigned K = 0; K != 6; ++K) {
      double RamShare = K == 0 ? 1.0 : 0.1 + 0.6 * Rng.nextDouble();
      double TimeShare = K == 0 ? 1.0 : 0.02 + 0.5 * Rng.nextDouble();
      P.Constraints[M.RamRow].Rhs = std::floor(RamShare * M.MaxRam);
      P.Constraints[M.TimeRow].Rhs = TimeShare * M.MaxTime;
      double Reference = bruteForceScaled(M);
      MipSolution S = solveMip(P, {}, &Warm);
      Certified += static_cast<unsigned>(S.Stats.StuckCertified);
      ++Points;
      ASSERT_TRUE(std::isfinite(Reference)); // all-flash always fits
      EXPECT_EQ(S.Outcome, SolveStatus::Optimal) << "point " << K;
      ASSERT_EQ(S.Values.size(), P.numVariables()) << "point " << K;
      uint64_t Mask = 0;
      for (unsigned J = 0; J != M.NumX; ++J)
        Mask |= uint64_t(S.Values[J] > 0.5) << J;
      EXPECT_NEAR(completion(M, Mask), Reference, 1e-9 * Scale)
          << "point " << K;
    }

    // Branch & bound's node sequence in miniature: dives that fix
    // binaries one at a time on one warm tableau, backtracking to the
    // root after an infeasible node, with budget patches in between.
    WarmStart Ws;
    std::vector<double> RootLo(P.numVariables()), RootHi(P.numVariables());
    for (unsigned J = 0; J != P.numVariables(); ++J) {
      RootLo[J] = P.Variables[J].Lower;
      RootHi[J] = P.Variables[J].Upper;
    }
    std::vector<double> Lo = RootLo, Hi = RootHi;
    for (unsigned Step = 0; Step != 120; ++Step) {
      if (Rng.nextBool(0.1))
        P.Constraints[M.TimeRow].Rhs =
            (0.02 + 0.5 * Rng.nextDouble()) * M.MaxTime;
      unsigned J = static_cast<unsigned>(Rng.nextBelow(M.NumX));
      Lo[J] = Hi[J] = double(Rng.nextBelow(2));
      LpSolution S = solveLpWarm(P, Lo, Hi, Ws);
      EXPECT_NE(S.Status, LpStatus::IterLimit) << "step " << Step;
      if (S.Effort.StuckCertified) {
        ++Certified;
        EXPECT_EQ(S.Status, LpStatus::Infeasible);
        LpSolution Cold = solveLpWithBounds(P, Lo, Hi);
        EXPECT_NE(Cold.Status, LpStatus::Optimal) << "step " << Step;
      }
      if (S.Status != LpStatus::Optimal) {
        Lo = RootLo;
        Hi = RootHi;
      }
    }
  }
  // The sweep must reach the certificate at all, or it proves nothing.
  EXPECT_GT(Certified, 0u) << "over " << Points << " knob points";
}

/// A knob patch that loosens a binding budget past everything its row
/// can hold leaves the row's slack nonbasic at 0, outside the range
/// [b - maxAct, b - minAct] its activity allows. The slack's reach is
/// measured from where it stands, so the re-solve repairs the row instead
/// of certifying the (feasible) relaxation infeasible.
TEST(StuckRows, LoosenedBudgetRowIsRepairedNotCertified) {
  LpProblem P;
  unsigned A = P.addVariable(0.0, 1.0, -1.0, /*Integer=*/false);
  unsigned B = P.addVariable(0.0, 1.0, -1.0, /*Integer=*/false);
  P.addConstraint({{A, 1.0}, {B, 1.0}}, ConstraintSense::LessEq, 1.5);
  P.addConstraint({{A, 1e-8}, {B, 1.0}}, ConstraintSense::GreaterEq, 0.0);
  std::vector<double> Lo = {0.0, 0.0}, Hi = {1.0, 1.0};
  WarmStart Ws;
  LpSolution Tight = solveLpWarm(P, Lo, Hi, Ws);
  ASSERT_EQ(Tight.Status, LpStatus::Optimal);
  EXPECT_NEAR(Tight.Objective, -1.5, 1e-12);
  for (double Budget : {50.0, 1.5, 1e6, 0.25}) {
    P.Constraints[0].Rhs = Budget;
    LpSolution W = solveLpWarm(P, Lo, Hi, Ws);
    LpSolution C = solveLpWithBounds(P, Lo, Hi);
    ASSERT_EQ(W.Status, LpStatus::Optimal) << "budget " << Budget;
    EXPECT_EQ(W.Effort.WarmNodeSolves, 1u) << "budget " << Budget;
    EXPECT_EQ(W.Effort.StuckCertified, 0u) << "budget " << Budget;
    EXPECT_NEAR(W.Objective, C.Objective, 1e-12) << "budget " << Budget;
  }
}

/// A MipWarmStart carries its branching history from one solve to the
/// next while the problem keeps its shape, and drops it when the shape
/// changes: a differently shaped problem then solves exactly as it would
/// from a fresh warm start.
TEST(Mip, PseudoCostsCarryAlongAChainAndResetOnShapeChange) {
  auto Knapsack = [](unsigned N, double Budget) {
    LpProblem P;
    for (unsigned J = 0; J != N; ++J)
      P.addBinary(-(3.0 + (J * 7) % 11));
    std::vector<std::pair<unsigned, double>> Terms;
    for (unsigned J = 0; J != N; ++J)
      Terms.push_back({J, double(2 + (J * 5) % 7)});
    P.addConstraint(std::move(Terms), ConstraintSense::LessEq, Budget);
    return P;
  };
  auto Observations = [](const PseudoCosts &PC) {
    unsigned N = 0;
    for (unsigned J = 0; J != PC.DownCnt.size(); ++J)
      N += PC.DownCnt[J] + PC.UpCnt[J];
    return N;
  };

  MipWarmStart Chain;
  LpProblem Wide = Knapsack(12, 23);
  MipSolution First = solveMip(Wide, {}, &Chain);
  ASSERT_TRUE(First.Proven);
  unsigned Learned = Observations(Chain.Branching);
  ASSERT_GT(Learned, 0u) << "the knapsack must branch";

  // Same shape, new budget: the history is kept and grows.
  Wide.Constraints[0].Rhs = 17;
  MipSolution Second = solveMip(Wide, {}, &Chain);
  ASSERT_TRUE(Second.Proven);
  EXPECT_EQ(Chain.Branching.DownCnt.size(), 12u);
  EXPECT_GE(Observations(Chain.Branching), Learned);

  // New shape: the carried state solves like a fresh one.
  LpProblem Narrow = Knapsack(9, 14);
  MipWarmStart Fresh;
  MipSolution Carried = solveMip(Narrow, {}, &Chain);
  MipSolution Clean = solveMip(Narrow, {}, &Fresh);
  EXPECT_EQ(Chain.Branching.DownCnt.size(), 9u);
  EXPECT_EQ(Observations(Chain.Branching), Observations(Fresh.Branching));
  EXPECT_EQ(Carried.NodesExplored, Clean.NodesExplored);
  EXPECT_EQ(Carried.Values, Clean.Values);
  EXPECT_EQ(Carried.Objective, Clean.Objective);
}
