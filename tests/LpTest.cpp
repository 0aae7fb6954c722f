//===- tests/LpTest.cpp - simplex and branch & bound -----------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "lp/BranchBound.h"
#include "lp/Simplex.h"
#include "support/Random.h"

#include <gtest/gtest.h>

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
/// forever. The regression pins termination and optimality under every
/// pricing rule (each non-Bland rule falls back to Bland on a stall).
/// Optimum: x = (1/25, 0, 1, 0), objective -1/20.
TEST(Simplex, BealeCyclingTerminatesUnderEveryPricingRule) {
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

  for (Pricing Rule :
       {Pricing::SteepestEdge, Pricing::Dantzig, Pricing::Bland}) {
    SolverConfig Opts;
    Opts.PricingRule = Rule;
    LpProblem P = Build();
    LpSolution S = solveLp(P, Opts);
    ASSERT_EQ(S.Status, LpStatus::Optimal)
        << "pricing rule " << pricingName(Rule);
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
    LpSolution W = solveLpWarm(P, Lo, Hi, Ws, Opts);
    ASSERT_EQ(W.Status, LpStatus::Optimal);
    EXPECT_NEAR(W.Objective, -0.05, 1e-9);
  }
}

TEST(Simplex, DegenerateProblemTerminatesUnderForcedBland) {
  LpProblem P;
  unsigned X = P.addVariable(0, 10, -1);
  P.addConstraint({{X, 1.0}}, ConstraintSense::LessEq, 5);
  P.addConstraint({{X, 2.0}}, ConstraintSense::LessEq, 10);
  P.addConstraint({{X, 3.0}}, ConstraintSense::LessEq, 15);
  SolverConfig Opts;
  Opts.PricingRule = Pricing::Bland;
  LpSolution S = solveLp(P, Opts);
  ASSERT_EQ(S.Status, LpStatus::Optimal);
  EXPECT_NEAR(S.Values[X], 5.0, 1e-7);
}

/// Every pricing rule round-trips through its CLI spelling, and retired
/// or unknown spellings are rejected.
TEST(SolverConfig, PricingNamesRoundTrip) {
  EXPECT_EQ(SolverConfig().PricingRule, Pricing::SteepestEdge);
  for (Pricing Rule :
       {Pricing::SteepestEdge, Pricing::Dantzig, Pricing::Bland}) {
    Pricing Parsed = Pricing::SteepestEdge;
    ASSERT_TRUE(pricingFromName(pricingName(Rule), Parsed));
    EXPECT_EQ(Parsed, Rule);
  }
  Pricing Unused = Pricing::SteepestEdge;
  EXPECT_FALSE(pricingFromName("newton", Unused));
  EXPECT_FALSE(pricingFromName("partial", Unused));
}

/// The progress journal pins solverConfigToken(): every setting that can
/// move a degraded label must change the token, or a resume under a
/// different config would replay the wrong labels.
TEST(SolverConfig, TokenChangesWithEverySolverSetting) {
  const std::string Base = solverConfigToken(SolverConfig());
  EXPECT_EQ(Base, solverConfigToken(SolverConfig())); // deterministic

  auto Changes = [&](auto Mutate, const char *Field) {
    SolverConfig Cfg;
    Mutate(Cfg);
    EXPECT_NE(solverConfigToken(Cfg), Base) << Field;
  };
  Changes([](SolverConfig &C) { C.PricingRule = Pricing::Dantzig; },
          "PricingRule=dantzig");
  Changes([](SolverConfig &C) { C.PricingRule = Pricing::Bland; },
          "PricingRule=bland");
  Changes([](SolverConfig &C) { C.Order = NodeOrder::BestBound; },
          "Order=best-bound");
  Changes([](SolverConfig &C) { C.Order = NodeOrder::Hybrid; },
          "Order=hybrid");
  Changes([](SolverConfig &C) { C.WarmNodes = false; }, "WarmNodes");
  Changes([](SolverConfig &C) { C.TimeLimitMs = 5; }, "TimeLimitMs");
  Changes([](SolverConfig &C) { C.NodeLimit = 5; }, "NodeLimit");
  Changes([](SolverConfig &C) { C.PivotLimit = 5; }, "PivotLimit");
  Changes([](SolverConfig &C) { C.MaxNodes = 5; }, "MaxNodes");
  Changes([](SolverConfig &C) { C.MaxIterations = 5; }, "MaxIterations");
  Changes([](SolverConfig &C) { C.RefactorInterval = 5; },
          "RefactorInterval");
  Changes([](SolverConfig &C) { C.PseudoCostBranching = false; },
          "PseudoCostBranching");
  Changes([](SolverConfig &C) { C.Tolerance = 1e-8; }, "Tolerance");
  Changes([](SolverConfig &C) { C.IntegerTolerance = 1e-5; },
          "IntegerTolerance");
  Changes([](SolverConfig &C) { C.GapTolerance = 1e-8; }, "GapTolerance");
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
  EXPECT_EQ(S.BoundFlips, 2u);
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
  EXPECT_GE(S.BoundFlips, 1u);
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
  ASSERT_EQ(solveLpWarm(P, Lo, Hi, Ws, {}).Status, LpStatus::Optimal);
  Lo[A] = 1.0;
  Hi[A] = 0.0; // empty box
  LpSolution Crossed = solveLpWarm(P, Lo, Hi, Ws, {});
  EXPECT_EQ(Crossed.Status, LpStatus::Infeasible);
  EXPECT_TRUE(Crossed.WarmStarted);
  Lo[A] = 0.0;
  Hi[A] = 1.0;
  LpSolution Back = solveLpWarm(P, Lo, Hi, Ws, {});
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
  ASSERT_EQ(solveLpWarm(P, Lo, Hi, Ws, {}).Status, LpStatus::Optimal);
  for (double V : {1.0, 0.0}) {
    Lo[B] = Hi[B] = V; // fix B at each bound in turn
    LpSolution Warm = solveLpWarm(P, Lo, Hi, Ws, {});
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
  LpSolution Root = solveLpWarm(P, Lo, Hi, Ws, {});
  ASSERT_EQ(Root.Status, LpStatus::Optimal);
  EXPECT_FALSE(Root.WarmStarted);
  ASSERT_TRUE(Ws.valid());

  Hi[A] = 0.0; // branch A = 0
  LpSolution Child = solveLpWarm(P, Lo, Hi, Ws, {});
  ASSERT_EQ(Child.Status, LpStatus::Optimal);
  EXPECT_TRUE(Child.WarmStarted);
  LpSolution Cold = solveLpWithBounds(P, Lo, Hi);
  EXPECT_NEAR(Child.Objective, Cold.Objective, 1e-9);
  EXPECT_NEAR(Child.Values[A], 0.0, 1e-9);

  Hi[A] = 1.0;
  Lo[A] = 1.0; // backtrack and branch A = 1
  Child = solveLpWarm(P, Lo, Hi, Ws, {});
  ASSERT_EQ(Child.Status, LpStatus::Optimal);
  EXPECT_TRUE(Child.WarmStarted);
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
  LpSolution First = solveLpWarm(P, Lo, Hi, Ws, {});
  ASSERT_EQ(First.Status, LpStatus::Optimal);
  EXPECT_NEAR(First.Objective, -16.0, 1e-9); // both fit

  P.Constraints[0].Rhs = 5.0; // tighten the budget
  LpSolution Patched = resolveLpFromBasis(P, Lo, Hi, Ws, {});
  ASSERT_EQ(Patched.Status, LpStatus::Optimal);
  EXPECT_TRUE(Patched.WarmStarted);
  LpSolution Cold = solveLp(P);
  EXPECT_NEAR(Patched.Objective, Cold.Objective, 1e-9);

  P.Constraints[0].Rhs = 9.0; // and loosen it again
  Patched = resolveLpFromBasis(P, Lo, Hi, Ws, {});
  ASSERT_EQ(Patched.Status, LpStatus::Optimal);
  EXPECT_NEAR(Patched.Objective, -16.0, 1e-9);
}

TEST(WarmLp, RefactorizationPreservesBasisAcrossWarmChain) {
  // With RefactorInterval = 1 the cadence rebuild fires after a handful
  // of pivots. The rebuild must re-eliminate the *current* basis in
  // place -- the chained solves stay warm (dual re-optimization, not a
  // cold phase-1/2 restart) and keep matching the cold answers exactly.
  LpProblem P;
  unsigned A = P.addBinary(-10);
  unsigned B = P.addBinary(-6);
  unsigned C = P.addBinary(-4);
  P.addConstraint({{A, 5.0}, {B, 4.0}, {C, 3.0}}, ConstraintSense::LessEq,
                  9);
  SolverConfig Opts;
  Opts.RefactorInterval = 1; // threshold: rows + vars + 1 = 5 pivots
  std::vector<double> Lo = {0, 0, 0}, Hi = {1, 1, 1};

  WarmStart Ws;
  ASSERT_EQ(solveLpWarm(P, Lo, Hi, Ws, Opts).Status, LpStatus::Optimal);

  bool SawRefactor = false;
  unsigned Pivots = 0;
  for (unsigned Round = 0; Round != 12; ++Round) {
    unsigned V = Round % 3;
    Lo[V] = Hi[V] = double(Round % 2); // fix one binary, alternating
    LpSolution Warm = solveLpWarm(P, Lo, Hi, Ws, Opts);
    LpSolution Cold = solveLpWithBounds(P, Lo, Hi);
    ASSERT_EQ(Warm.Status, Cold.Status) << "round " << Round;
    if (Warm.Status == LpStatus::Optimal)
      EXPECT_NEAR(Warm.Objective, Cold.Objective, 1e-9)
          << "round " << Round;
    EXPECT_TRUE(Warm.WarmStarted) << "round " << Round;
    SawRefactor |= Warm.Refactorized;
    Pivots += Warm.Iterations + Warm.DualIterations;
    Lo[V] = 0.0;
    Hi[V] = 1.0; // backtrack for the next round
  }
  // The chain pivots well past the interval, so at least one solve must
  // have gone through the in-place refactorization.
  EXPECT_TRUE(SawRefactor);
  EXPECT_GT(Pivots, 0u);
}

TEST(WarmLp, DetectsInfeasibilityAfterTightening) {
  LpProblem P;
  unsigned A = P.addBinary(0.0);
  unsigned B = P.addBinary(0.0);
  P.addConstraint({{A, 1.0}, {B, 1.0}}, ConstraintSense::GreaterEq, 2);
  std::vector<double> Lo = {0, 0}, Hi = {1, 1};
  WarmStart Ws;
  ASSERT_EQ(solveLpWarm(P, Lo, Hi, Ws, {}).Status, LpStatus::Optimal);
  Hi[A] = 0.0; // now A + B >= 2 needs A = 1
  EXPECT_EQ(solveLpWarm(P, Lo, Hi, Ws, {}).Status, LpStatus::Infeasible);
  // Loosening must recover, whichever path (dual-proven infeasibility
  // keeps the basis; a rebuild re-solves cold).
  Hi[A] = 1.0;
  EXPECT_EQ(solveLpWarm(P, Lo, Hi, Ws, {}).Status, LpStatus::Optimal);
}

TEST(WarmLp, ResolveWithoutBasisReportsIterLimit) {
  LpProblem P;
  (void)P.addBinary(-1);
  std::vector<double> Lo = {0}, Hi = {1};
  WarmStart Ws;
  EXPECT_FALSE(Ws.valid());
  EXPECT_EQ(resolveLpFromBasis(P, Lo, Hi, Ws, {}).Status,
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

namespace {

/// Exhaustive 0/1 reference optimum for small problems.
double bruteForceOptimum(const LpProblem &P) {
  unsigned N = P.numVariables();
  double Best = std::numeric_limits<double>::infinity();
  for (uint64_t Mask = 0; Mask != (1ULL << N); ++Mask) {
    std::vector<double> X(N);
    for (unsigned J = 0; J != N; ++J)
      X[J] = (Mask >> J) & 1;
    if (P.isFeasible(X))
      Best = std::min(Best, P.objectiveValue(X));
  }
  return Best;
}

} // namespace

/// Property sweep: the MIP solver matches brute force on random knapsacks
/// with side constraints.
class MipRandomized : public ::testing::TestWithParam<int> {};

TEST_P(MipRandomized, MatchesBruteForce) {
  SplitMix64 Rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  unsigned N = 4 + static_cast<unsigned>(Rng.nextBelow(9)); // 4..12 vars
  LpProblem P;
  for (unsigned J = 0; J != N; ++J)
    P.addBinary(static_cast<double>(Rng.nextInRange(-20, 5)));
  unsigned NumCons = 1 + static_cast<unsigned>(Rng.nextBelow(3));
  for (unsigned C = 0; C != NumCons; ++C) {
    std::vector<std::pair<unsigned, double>> Terms;
    for (unsigned J = 0; J != N; ++J)
      if (Rng.nextBool(0.7))
        Terms.push_back({J, static_cast<double>(Rng.nextInRange(1, 9))});
    if (Terms.empty())
      Terms.push_back({0, 1.0});
    double Rhs = static_cast<double>(Rng.nextInRange(3, 25));
    P.addConstraint(std::move(Terms), ConstraintSense::LessEq, Rhs);
  }

  double Reference = bruteForceOptimum(P);
  // Every node-solve strategy x node order x branching rule is exact and
  // must agree with brute force.
  for (bool WarmNodes : {false, true})
    for (NodeOrder Order :
         {NodeOrder::Dfs, NodeOrder::BestBound, NodeOrder::Hybrid})
      for (bool PseudoCost : {false, true}) {
        SolverConfig Opts;
        Opts.WarmNodes = WarmNodes;
        Opts.Order = Order;
        Opts.PseudoCostBranching = PseudoCost;
        MipSolution S = solveMip(P, Opts);
        ASSERT_TRUE(S.feasible()); // all-zeros is always feasible here
        EXPECT_TRUE(S.Proven);
        EXPECT_NEAR(S.Objective, Reference, 1e-6)
            << (WarmNodes ? "warm" : "cold") << " nodes, "
            << nodeOrderName(Order) << " order, "
            << (PseudoCost ? "pseudo-cost" : "most-fractional");
        EXPECT_TRUE(P.isFeasible(S.Values));
        if (WarmNodes)
          EXPECT_EQ(S.coldNodeSolves() + S.warmNodeSolves(), S.NodesExplored);
        else
          EXPECT_EQ(S.coldNodeSolves(), S.NodesExplored);
      }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MipRandomized, ::testing::Range(0, 25));

TEST(Mip, WarmStartChainsAcrossRhsPatches) {
  // The knob-axis shape: one problem, the budget row's RHS swept; each
  // solve after the first re-optimizes the previous basis and seeds its
  // incumbent from the previous optimum.
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
    EXPECT_EQ(W.warmStarted(), !First);
    First = false;
  }
}

TEST(Mip, ExternallySeededIncumbentOpensTheSearch) {
  // Planting a feasible assignment in the warm state before the first
  // solve marks the solution as seeded and cannot change the answer; an
  // infeasible plant is rejected by the zero-tolerance re-check.
  LpProblem P;
  unsigned A = P.addBinary(-10);
  unsigned B = P.addBinary(-6);
  unsigned C = P.addBinary(-4);
  P.addConstraint({{A, 5.0}, {B, 4.0}, {C, 3.0}}, ConstraintSense::LessEq,
                  9);
  MipSolution Plain = solveMip(P);
  ASSERT_TRUE(Plain.feasible());
  EXPECT_FALSE(Plain.seededIncumbent());

  MipWarmStart Seeded;
  Seeded.Incumbent = {1.0, 1.0, 0.0}; // the known optimum
  MipSolution S = solveMip(P, {}, &Seeded);
  ASSERT_TRUE(S.feasible());
  EXPECT_TRUE(S.seededIncumbent());
  EXPECT_NEAR(S.Objective, Plain.Objective, 1e-9);
  EXPECT_EQ(S.Values, Plain.Values);

  MipWarmStart Bogus;
  Bogus.Incumbent = {1.0, 1.0, 1.0}; // weight 12 > 9: infeasible
  MipSolution R = solveMip(P, {}, &Bogus);
  ASSERT_TRUE(R.feasible());
  EXPECT_FALSE(R.seededIncumbent());
  EXPECT_NEAR(R.Objective, Plain.Objective, 1e-9);
}

TEST(Mip, BestBoundProvesWithoutExhaustingOpenList) {
  // A chunkier knapsack: best-bound must reach the same optimum as Dfs
  // and terminate by bound (the open list prunes wholesale once the top
  // node cannot beat the incumbent).
  LpProblem P;
  for (int J = 0; J != 12; ++J)
    P.addBinary(-(3.0 + (J * 7) % 11));
  std::vector<std::pair<unsigned, double>> Terms;
  for (unsigned J = 0; J != 12; ++J)
    Terms.push_back({J, double(2 + (J * 5) % 7)});
  P.addConstraint(std::move(Terms), ConstraintSense::LessEq, 23);

  SolverConfig Dfs;
  Dfs.Order = NodeOrder::Dfs;
  SolverConfig BB;
  BB.Order = NodeOrder::BestBound;
  MipSolution SDfs = solveMip(P, Dfs);
  MipSolution SBB = solveMip(P, BB);
  ASSERT_TRUE(SDfs.feasible());
  ASSERT_TRUE(SBB.feasible());
  EXPECT_TRUE(SBB.Proven);
  EXPECT_NEAR(SDfs.Objective, SBB.Objective, 1e-9);
}

namespace {

/// Counts the exhaustive 0/1 optima of \p P at objective \p Best. The
/// random knapsacks below have integer costs, so equality is exact.
unsigned bruteForceOptimumCount(const LpProblem &P, double Best) {
  unsigned N = P.numVariables();
  unsigned Count = 0;
  for (uint64_t Mask = 0; Mask != (1ULL << N); ++Mask) {
    std::vector<double> X(N);
    for (unsigned J = 0; J != N; ++J)
      X[J] = (Mask >> J) & 1;
    if (P.isFeasible(X) && P.objectiveValue(X) == Best)
      ++Count;
  }
  return Count;
}

} // namespace

/// Property sweep for the pricing rules: every rule is exact (same
/// objective as the brute-force enumerator), and when the optimum is
/// unique the assignment is identical to the default config's. The rules
/// take different pivot paths through the same polytopes; none may change
/// an answer.
class MipPricingRandomized : public ::testing::TestWithParam<int> {};

TEST_P(MipPricingRandomized, AllRulesAgreeWithBruteForce) {
  SplitMix64 Rng(static_cast<uint64_t>(GetParam()) * 15485863 + 37);
  unsigned N = 5 + static_cast<unsigned>(Rng.nextBelow(8)); // 5..12 vars
  LpProblem P;
  for (unsigned J = 0; J != N; ++J)
    P.addBinary(static_cast<double>(Rng.nextInRange(-20, 5)));
  unsigned NumCons = 1 + static_cast<unsigned>(Rng.nextBelow(3));
  for (unsigned C = 0; C != NumCons; ++C) {
    std::vector<std::pair<unsigned, double>> Terms;
    for (unsigned J = 0; J != N; ++J)
      if (Rng.nextBool(0.7))
        Terms.push_back({J, static_cast<double>(Rng.nextInRange(1, 9))});
    if (Terms.empty())
      Terms.push_back({0, 1.0});
    double Rhs = static_cast<double>(Rng.nextInRange(3, 25));
    P.addConstraint(std::move(Terms), ConstraintSense::LessEq, Rhs);
  }

  double Reference = bruteForceOptimum(P);
  bool Unique = bruteForceOptimumCount(P, Reference) == 1;
  MipSolution Baseline = solveMip(P);
  ASSERT_TRUE(Baseline.feasible()); // all-zeros is always feasible here
  EXPECT_NEAR(Baseline.Objective, Reference, 1e-6);

  for (Pricing Rule :
       {Pricing::SteepestEdge, Pricing::Dantzig, Pricing::Bland}) {
    SolverConfig Cfg;
    Cfg.PricingRule = Rule;
    MipSolution S = solveMip(P, Cfg);
    ASSERT_TRUE(S.feasible());
    EXPECT_TRUE(S.Proven);
    EXPECT_NEAR(S.Objective, Reference, 1e-6) << pricingName(Rule);
    EXPECT_TRUE(P.isFeasible(S.Values));
    if (Unique) {
      EXPECT_EQ(S.Values, Baseline.Values) << pricingName(Rule);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MipPricingRandomized,
                         ::testing::Range(0, 12));
