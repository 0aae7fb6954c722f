//===- tests/ModelTest.cpp - ILP model, enumerator, greedy ------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "core/Enumerator.h"
#include "core/Greedy.h"
#include "core/IlpModel.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

using namespace ramloc;

namespace {

/// Builds synthetic model parameters: a chain of N blocks where block i
/// has the given frequency/size profile. Succs follow the chain; the last
/// block has none (return).
ModelParams syntheticChain(const std::vector<double> &Freqs,
                           const std::vector<unsigned> &Sizes) {
  ModelParams MP;
  MP.EFlash = 15.0;
  MP.ERam = 9.0;
  MP.FuncOffset = {0};
  unsigned N = Freqs.size();
  for (unsigned I = 0; I != N; ++I) {
    BlockParams B;
    B.Name = "f:b" + std::to_string(I);
    B.Sb = Sizes[I];
    B.Cb = 10.0;
    B.Fb = Freqs[I];
    B.Kb = 10;
    B.Tb = 4.0;
    B.Lb = 1.0;
    B.Ib = 5.0;
    B.TbInstr = 2.0;
    B.Term = I + 1 == N ? TermKind::Return : TermKind::Uncond;
    if (I + 1 != N)
      B.Succs.push_back(I + 1);
    MP.Blocks.push_back(std::move(B));
  }
  return MP;
}

ModelParams randomParams(SplitMix64 &Rng, unsigned N) {
  ModelParams MP;
  MP.EFlash = 15.0;
  MP.ERam = 9.0;
  MP.FuncOffset = {0};
  for (unsigned I = 0; I != N; ++I) {
    BlockParams B;
    B.Name = "f:b" + std::to_string(I);
    B.Sb = 4 + 2 * static_cast<unsigned>(Rng.nextBelow(30));
    B.Cb = 2.0 + static_cast<double>(Rng.nextBelow(40));
    B.Fb = static_cast<double>(1 + Rng.nextBelow(200));
    B.Kb = 6 + 2 * static_cast<unsigned>(Rng.nextBelow(6));
    B.Tb = 1.0 + static_cast<double>(Rng.nextBelow(6));
    B.Lb = static_cast<double>(Rng.nextBelow(4));
    B.Term = TermKind::Cond;
    MP.Blocks.push_back(std::move(B));
  }
  // Random successor edges (forward and backward allowed).
  for (unsigned I = 0; I != N; ++I) {
    unsigned Count = static_cast<unsigned>(Rng.nextBelow(3));
    for (unsigned C = 0; C != Count; ++C) {
      unsigned S = static_cast<unsigned>(Rng.nextBelow(N));
      if (S != I)
        MP.Blocks[I].Succs.push_back(S);
    }
  }
  return MP;
}

std::vector<unsigned> allBlocks(const ModelParams &MP) {
  std::vector<unsigned> V(MP.numBlocks());
  for (unsigned I = 0; I != V.size(); ++I)
    V[I] = I;
  return V;
}

/// Continuous random parameters: with probability 1 no two placements tie
/// on energy, so the optimum is unique and solver-vs-enumerator checks
/// can demand bit-for-bit equality on the assignment.
ModelParams randomContinuousParams(SplitMix64 &Rng, unsigned N) {
  ModelParams MP;
  MP.EFlash = 15.0;
  MP.ERam = 9.0;
  MP.FuncOffset = {0};
  for (unsigned I = 0; I != N; ++I) {
    BlockParams B;
    B.Name = "f:b" + std::to_string(I);
    B.Sb = 4 + 2 * static_cast<unsigned>(Rng.nextBelow(30));
    B.Cb = 2.0 + 38.0 * Rng.nextDouble();
    B.Fb = 1.0 + 199.0 * Rng.nextDouble();
    B.Kb = 6 + 2 * static_cast<unsigned>(Rng.nextBelow(6));
    B.Tb = 1.0 + 5.0 * Rng.nextDouble();
    B.Lb = 3.0 * Rng.nextDouble();
    B.Term = TermKind::Cond;
    MP.Blocks.push_back(std::move(B));
  }
  for (unsigned I = 0; I != N; ++I) {
    unsigned Count = static_cast<unsigned>(Rng.nextBelow(3));
    for (unsigned C = 0; C != Count; ++C) {
      unsigned S = static_cast<unsigned>(Rng.nextBelow(N));
      if (S != I)
        MP.Blocks[I].Succs.push_back(S);
    }
  }
  return MP;
}

/// The enumerator's optimum as an Assignment over all blocks.
Assignment enumeratorOptimum(const ModelParams &MP, const ModelKnobs &Knobs) {
  auto Points = enumerateSolutions(MP, allBlocks(MP));
  double BaseCycles =
      evaluateAssignment(MP, Assignment(MP.numBlocks(), false)).Cycles;
  int Best = bestFeasiblePoint(Points, BaseCycles, Knobs);
  EXPECT_GE(Best, 0); // all-flash is always feasible
  Assignment InRam(MP.numBlocks(), false);
  for (unsigned I = 0; I != MP.numBlocks(); ++I)
    InRam[I] = (Points[static_cast<unsigned>(Best)].Mask >> I) & 1;
  return InRam;
}

} // namespace

TEST(Model, InstrumentedSetMatchesEq5) {
  ModelParams MP = syntheticChain({1, 1, 1}, {10, 10, 10});
  // Middle block in RAM: both its neighbours cross.
  Assignment InRam = {false, true, false};
  std::vector<bool> I = computeInstrumented(MP, InRam);
  EXPECT_TRUE(I[0]); // 0 -> 1 crosses
  EXPECT_TRUE(I[1]); // 1 -> 2 crosses
  EXPECT_FALSE(I[2]);

  // All in RAM: no crossings.
  I = computeInstrumented(MP, {true, true, true});
  EXPECT_FALSE(I[0] || I[1] || I[2]);
}

TEST(Model, EvaluateAllFlashBaseline) {
  ModelParams MP = syntheticChain({1, 100, 1}, {10, 20, 10});
  ModelEstimate E = evaluateAssignment(MP, {false, false, false});
  // Energy = sum Fb*Cb*Eflash / clock.
  double Expected = (1 + 100 + 1) * 10.0 * 15.0 / MP.ClockHz;
  EXPECT_NEAR(E.EnergyMilliJoules, Expected, 1e-12);
  EXPECT_EQ(E.RamBytes, 0u);
  EXPECT_NEAR(E.AvgMilliWatts, 15.0, 1e-9);
}

TEST(Model, EvaluateAccountsInstrumentationBothSides) {
  ModelParams MP = syntheticChain({1, 100, 1}, {10, 20, 10});
  Assignment InRam = {false, true, false};
  ModelEstimate E = evaluateAssignment(MP, InRam);
  // Block 0 (flash, instrumented): (10 + 4)*1*15.
  // Block 1 (RAM, instrumented): (10 + 4 + 1)*100*9.
  // Block 2 (flash): 10*1*15.
  double Expected = (14.0 * 15.0 + 1500.0 * 9.0 + 10.0 * 15.0) / MP.ClockHz;
  EXPECT_NEAR(E.EnergyMilliJoules, Expected, 1e-12);
  // RAM bytes: Sb + Kb of block 1 only.
  EXPECT_EQ(E.RamBytes, 30u);
}

TEST(Model, CallEdgesCostCycles) {
  ModelParams MP = syntheticChain({1, 1}, {10, 10});
  MP.Blocks[0].Calls.push_back({1u, 3u}); // three calls to block 1
  MP.Blocks[0].Succs.clear();             // isolate the call effect
  Assignment CalleeMoved = {false, true};
  ModelEstimate Base = evaluateAssignment(MP, {false, false});
  ModelEstimate Moved = evaluateAssignment(MP, CalleeMoved);
  // Caller pays 3 * CallInstrCycles at flash power; callee gets cheaper
  // but picks up its Lb=1 contention stall: (10+1)*9 - 10*15 per exec.
  double CallPenalty = 3.0 * MP.CallInstrCycles * 1.0 * 15.0 / MP.ClockHz;
  double CalleeDelta = (11.0 * 9.0 - 10.0 * 15.0) / MP.ClockHz;
  EXPECT_NEAR(Moved.EnergyMilliJoules - Base.EnergyMilliJoules,
              CallPenalty + CalleeDelta, 1e-12);
}

TEST(Model, SolverPicksHotBlockAndTail) {
  // One hot block with a cold tail; Rspare fits {hot, tail} (30 bytes,
  // uninstrumented) but not all three blocks (40). The solver should
  // cluster the hot block with its successor rather than pay Kb.
  ModelParams MP = syntheticChain({1, 1000, 1}, {10, 20, 10});
  ModelKnobs Knobs;
  Knobs.RspareBytes = 32;
  Knobs.Xlimit = 2.0;
  Assignment R = solvePlacement(MP, Knobs);
  EXPECT_FALSE(R[0]);
  EXPECT_TRUE(R[1]);
  EXPECT_TRUE(R[2]);
}

TEST(Model, RamConstraintRespected) {
  ModelParams MP = syntheticChain({10, 10, 10}, {100, 100, 100});
  ModelKnobs Knobs;
  Knobs.RspareBytes = 150; // only one block (plus Kb) can fit
  Assignment R = solvePlacement(MP, Knobs);
  ModelEstimate E = evaluateAssignment(MP, R);
  EXPECT_LE(E.RamBytes, Knobs.RspareBytes);
}

TEST(Model, TimeConstraintRespected) {
  ModelParams MP = syntheticChain({100, 100, 100}, {10, 10, 10});
  ModelKnobs Knobs;
  Knobs.RspareBytes = 10000;
  Knobs.Xlimit = 1.02; // very tight: instrumentation overhead is large
  Assignment R = solvePlacement(MP, Knobs);
  ModelEstimate Base = evaluateAssignment(
      MP, Assignment(MP.numBlocks(), false));
  ModelEstimate Opt = evaluateAssignment(MP, R);
  EXPECT_LE(Opt.Cycles, Knobs.Xlimit * Base.Cycles + 1e-6);
}

TEST(Model, ClusteringPullsNeighboursIn) {
  // A hot loop block (1) with a cheap tiny successor (2): moving both
  // avoids instrumenting the hot block (the paper's motivating insight).
  ModelParams MP = syntheticChain({1, 1000, 500, 1}, {10, 40, 8, 10});
  // Make block 2 small and cheap, frequently executed after block 1.
  ModelKnobs Knobs;
  Knobs.RspareBytes = 80;
  Knobs.Xlimit = 2.0;
  Assignment R = solvePlacement(MP, Knobs);
  EXPECT_TRUE(R[1]);
  EXPECT_TRUE(R[2]) << "solver should cluster the joining block into RAM";
}

TEST(Model, AllFlashIsAlwaysFeasible) {
  ModelParams MP = syntheticChain({5, 5}, {10000, 10000});
  ModelKnobs Knobs;
  Knobs.RspareBytes = 0; // nothing fits
  MipSolution Stats;
  Assignment R = solvePlacement(MP, Knobs, {}, &Stats);
  EXPECT_TRUE(Stats.feasible());
  EXPECT_FALSE(R[0] || R[1]);
}

TEST(Model, ImmovableBlocksStayInFlash) {
  ModelParams MP = syntheticChain({1, 1000}, {10, 10});
  MP.Blocks[1].Movable = false;
  Assignment R = solvePlacement(MP);
  EXPECT_FALSE(R[1]);
}

TEST(Enumerator, HotBlockSelection) {
  ModelParams MP = syntheticChain({1, 50, 5, 100}, {10, 10, 10, 10});
  std::vector<unsigned> Hot = selectHotBlocks(MP, 2);
  ASSERT_EQ(Hot.size(), 2u);
  EXPECT_EQ(Hot[0], 1u);
  EXPECT_EQ(Hot[1], 3u);
  MP.Blocks[3].Movable = false;
  Hot = selectHotBlocks(MP, 2);
  EXPECT_TRUE(std::find(Hot.begin(), Hot.end(), 3u) == Hot.end());
}

TEST(Enumerator, EnumeratesFullSpace) {
  ModelParams MP = syntheticChain({1, 10, 1}, {10, 10, 10});
  auto Points = enumerateSolutions(MP, allBlocks(MP));
  EXPECT_EQ(Points.size(), 8u);
  // Mask 0 is the all-flash baseline.
  EXPECT_EQ(Points[0].Estimate.RamBytes, 0u);
  // Every point's estimate is self-consistent with direct evaluation.
  Assignment InRam(3, false);
  InRam[1] = true;
  ModelEstimate Direct = evaluateAssignment(MP, InRam);
  EXPECT_NEAR(Points[2].Estimate.EnergyMilliJoules,
              Direct.EnergyMilliJoules, 1e-15);
}

TEST(Enumerator, BestFeasibleRespectsBudgets) {
  ModelParams MP = syntheticChain({1, 100, 1}, {10, 20, 10});
  auto Points = enumerateSolutions(MP, allBlocks(MP));
  double BaseCycles =
      evaluateAssignment(MP, Assignment(3, false)).Cycles;
  ModelKnobs Knobs;
  Knobs.RspareBytes = 40;
  Knobs.Xlimit = 2.0;
  int Best = bestFeasiblePoint(Points, BaseCycles, Knobs);
  ASSERT_GE(Best, 0);
  EXPECT_LE(Points[Best].Estimate.RamBytes, 40u);
}

/// The central correctness property: on every enumerable model, the ILP
/// solver's choice equals the exhaustive optimum.
class SolverVsEnumeration : public ::testing::TestWithParam<int> {};

TEST_P(SolverVsEnumeration, IlpMatchesExhaustive) {
  SplitMix64 Rng(static_cast<uint64_t>(GetParam()) * 104729 + 1);
  unsigned N = 3 + static_cast<unsigned>(Rng.nextBelow(8)); // 3..10
  ModelParams MP = randomParams(Rng, N);

  ModelKnobs Knobs;
  Knobs.RspareBytes = 30 + static_cast<unsigned>(Rng.nextBelow(200));
  Knobs.Xlimit = 1.05 + Rng.nextDouble();

  auto Points = enumerateSolutions(MP, allBlocks(MP));
  double BaseCycles =
      evaluateAssignment(MP, Assignment(N, false)).Cycles;
  int Best = bestFeasiblePoint(Points, BaseCycles, Knobs);
  ASSERT_GE(Best, 0);

  MipSolution Stats;
  Assignment R = solvePlacement(MP, Knobs, {}, &Stats);
  ASSERT_TRUE(Stats.feasible());
  ModelEstimate SolverE = evaluateAssignment(MP, R);

  EXPECT_NEAR(SolverE.EnergyMilliJoules,
              Points[Best].Estimate.EnergyMilliJoules, 1e-9)
      << "solver N=" << N << " ram=" << Knobs.RspareBytes
      << " xlimit=" << Knobs.Xlimit;
  EXPECT_LE(SolverE.RamBytes, Knobs.RspareBytes);
  EXPECT_LE(SolverE.Cycles, Knobs.Xlimit * BaseCycles + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SolverVsEnumeration,
                         ::testing::Range(0, 30));

TEST(Model, PatchKnobsMatchesRebuild) {
  SplitMix64 Rng(99);
  ModelParams MP = randomContinuousParams(Rng, 8);
  ModelKnobs K1;
  K1.RspareBytes = 100;
  K1.Xlimit = 1.2;
  ModelKnobs K2;
  K2.RspareBytes = 250;
  K2.Xlimit = 1.6;

  PlacementModel Patched = buildPlacementModel(MP, K1);
  Patched.patchKnobs(K2);
  PlacementModel Rebuilt = buildPlacementModel(MP, K2);

  ASSERT_EQ(Patched.P.numConstraints(), Rebuilt.P.numConstraints());
  ASSERT_EQ(Patched.RamConstraint, Rebuilt.RamConstraint);
  ASSERT_EQ(Patched.TimeConstraint, Rebuilt.TimeConstraint);
  for (unsigned I = 0; I != Patched.P.numConstraints(); ++I)
    EXPECT_EQ(Patched.P.Constraints[I].Rhs, Rebuilt.P.Constraints[I].Rhs)
        << "constraint " << I;
  EXPECT_EQ(Patched.Knobs.RspareBytes, K2.RspareBytes);
  EXPECT_EQ(Patched.Knobs.Xlimit, K2.Xlimit);
}

/// Solve-reuse correctness, bit-for-bit: on tie-free random models the
/// cold solver, the warm-noded solver and a PlacementSolver chain that
/// visits knob points in sequence (each warm-started from its neighbour)
/// must all return exactly the enumerator's optimal assignment — and
/// therefore exactly its energy, since both sides evaluate through
/// evaluateAssignment.
class WarmSolverVsEnumeration : public ::testing::TestWithParam<int> {};

TEST_P(WarmSolverVsEnumeration, ColdWarmAndChainedMatchExhaustive) {
  SplitMix64 Rng(static_cast<uint64_t>(GetParam()) * 292663 + 17);
  unsigned N = 3 + static_cast<unsigned>(Rng.nextBelow(8)); // 3..10
  ModelParams MP = randomContinuousParams(Rng, N);

  // A small knob axis around random budgets.
  std::vector<ModelKnobs> Axis;
  for (int I = 0; I != 3; ++I) {
    ModelKnobs K;
    K.RspareBytes = 30 + static_cast<unsigned>(Rng.nextBelow(200));
    K.Xlimit = 1.05 + Rng.nextDouble();
    Axis.push_back(K);
  }

  PlacementSolver Chain(MP, Axis.front());
  for (const ModelKnobs &K : Axis) {
    Assignment Truth = enumeratorOptimum(MP, K);
    double TruthEnergy = evaluateAssignment(MP, Truth).EnergyMilliJoules;

    // The search must land on the enumerator's optimum, cold and warm
    // alike.
    SolverConfig Cold;
    Cold.WarmNodes = false;
    Assignment FromCold = solvePlacement(MP, K, Cold);
    EXPECT_EQ(FromCold, Truth) << "cold solver diverged";

    Assignment FromWarm = solvePlacement(MP, K, SolverConfig());
    EXPECT_EQ(FromWarm, Truth) << "warm-noded solver diverged";

    MipSolution Stats;
    Assignment FromChain = Chain.solve(K, {}, &Stats);
    EXPECT_EQ(FromChain, Truth) << "knob-chained solver diverged";
    EXPECT_EQ(evaluateAssignment(MP, FromChain).EnergyMilliJoules,
              TruthEnergy);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WarmSolverVsEnumeration,
                         ::testing::Range(0, 20));

TEST(Model, EncodeIsTheInverseOfDecodeAndOptimallyComplete) {
  // encode() lifts an assignment to the canonical variable vector: it
  // must be feasible at zero tolerance, achieve exactly the model energy
  // of the assignment, and decode straight back.
  SplitMix64 Rng(4242);
  ModelParams MP = randomContinuousParams(Rng, 8);
  ModelKnobs K;
  K.RspareBytes = 150;
  K.Xlimit = 1.6;
  PlacementModel PM = buildPlacementModel(MP, K);

  MipSolution Sol = solveMip(PM.P);
  ASSERT_TRUE(Sol.feasible());
  Assignment InRam = PM.decode(Sol);

  std::vector<double> X = PM.encode(MP, InRam);
  ASSERT_EQ(X.size(), PM.P.numVariables());
  EXPECT_TRUE(PM.P.isFeasible(X, /*Tol=*/0.0));
  // The encoded point reproduces the solver's objective: y/z/c/w are
  // pinned at their optimal completions for this x (the solver's own
  // point may carry simplex-arithmetic residue, hence the tolerance).
  EXPECT_NEAR(PM.P.objectiveValue(X), Sol.Objective,
              1e-6 * std::abs(Sol.Objective) + 1e-9);

  MipSolution Round;
  Round.Status = LpStatus::Optimal;
  Round.Values = X;
  EXPECT_EQ(PM.decode(Round), InRam);

  // Wrong arity is rejected.
  EXPECT_TRUE(PM.encode(MP, Assignment(MP.numBlocks() + 1, false)).empty());
}

TEST(Model, SeededSolverMatchesUnseededBitForBit) {
  // The persistent-incumbent path: seeding a fresh solver with the known
  // optimum must flag the solve as seeded and return the identical
  // assignment; seeding with a stale/infeasible assignment must be
  // harmless.
  SplitMix64 Rng(777);
  ModelParams MP = randomContinuousParams(Rng, 9);
  ModelKnobs K;
  K.RspareBytes = 120;
  K.Xlimit = 1.4;

  Assignment Truth = enumeratorOptimum(MP, K);

  PlacementSolver Seeded(MP, K);
  ASSERT_TRUE(Seeded.seedIncumbent(MP, Truth));
  MipSolution Stats;
  Assignment FromSeeded = Seeded.solve(K, {}, &Stats);
  EXPECT_TRUE(Stats.seededIncumbent());
  EXPECT_EQ(FromSeeded, Truth);

  // An over-stuffed assignment (everything in RAM) fails the RAM budget
  // re-check and is discarded, not trusted.
  PlacementSolver Stale(MP, K);
  Assignment Everything(MP.numBlocks(), true);
  if (Stale.seedIncumbent(MP, Everything)) {
    MipSolution StaleStats;
    Assignment FromStale = Stale.solve(K, {}, &StaleStats);
    EXPECT_FALSE(StaleStats.seededIncumbent());
    EXPECT_EQ(FromStale, Truth);
  }
}

namespace {

/// The loosest knobs the dominance tests start their chains from.
ModelKnobs looseKnobs() {
  ModelKnobs K;
  K.RspareBytes = 400;
  K.Xlimit = 2.0;
  return K;
}

} // namespace

TEST(Dominance, LooserOptimumThatStillFitsSettlesThePointWithoutSearch) {
  // Both knobs only cap the feasible set, so a looser point's proven
  // optimum that still fits a tighter point is optimal there too. The
  // tighter point's budget is the loose optimum's own RAM use, so the
  // optimum fits unless the solver's continuous values carry residue
  // (then the point is searched, which is also exact).
  unsigned Settled = 0;
  for (uint64_t Seed = 0; Seed != 20; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    SplitMix64 Rng(Seed * 7607 + 3);
    ModelParams MP = randomContinuousParams(Rng, 4 + unsigned(Seed % 6));
    PlacementSolver Chain(MP, looseKnobs());
    Assignment Loose = Chain.solve(looseKnobs());
    ModelKnobs Tight = looseKnobs();
    Tight.RspareBytes = evaluateAssignment(MP, Loose).RamBytes;

    MipSolution Sol;
    Assignment FromChain = Chain.solve(Tight, {}, &Sol);
    SolverConfig Cold;
    Cold.WarmNodes = false;
    EXPECT_EQ(FromChain, solvePlacement(MP, Tight, Cold));
    EXPECT_EQ(FromChain, enumeratorOptimum(MP, Tight));
    EXPECT_EQ(Sol.Outcome, SolveStatus::Optimal);
    EXPECT_TRUE(Sol.warmStarted());
    if (!Sol.dominated())
      continue;
    ++Settled;
    EXPECT_EQ(FromChain, Loose);
    EXPECT_EQ(Sol.NodesExplored, 0u);
    EXPECT_EQ(Sol.primalPivots() + Sol.dualPivots(), 0u);
  }
  EXPECT_GT(Settled, 10u);
}

TEST(Dominance, DonorThatNoLongerFitsFallsThroughToSearch) {
  // A tighter RAM budget than the loose optimum uses: that optimum is
  // infeasible here, so the point is searched.
  unsigned Searched = 0;
  for (uint64_t Seed = 0; Seed != 20; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    SplitMix64 Rng(Seed * 7607 + 3);
    ModelParams MP = randomContinuousParams(Rng, 4 + unsigned(Seed % 6));
    PlacementSolver Chain(MP, looseKnobs());
    Assignment Loose = Chain.solve(looseKnobs());
    unsigned Used = evaluateAssignment(MP, Loose).RamBytes;
    if (Used == 0)
      continue; // nothing moved: no tighter budget excludes it
    ModelKnobs Tight = looseKnobs();
    Tight.RspareBytes = Used - 1;
    MipSolution Sol;
    Assignment FromChain = Chain.solve(Tight, {}, &Sol);
    ++Searched;
    EXPECT_FALSE(Sol.dominated());
    EXPECT_GT(Sol.NodesExplored, 0u);
    EXPECT_EQ(Sol.Outcome, SolveStatus::Optimal);
    EXPECT_EQ(FromChain, enumeratorOptimum(MP, Tight));
  }
  EXPECT_GT(Searched, 10u);
}

TEST(Dominance, LimitedAnswerIsNeverADonor) {
  // A NodeLimit=1 solve that stops before its proof is labelled
  // FeasibleLimit; revisiting the same knobs unlimited must search
  // rather than take the unproven answer, although it trivially fits.
  unsigned Limited = 0;
  for (uint64_t Seed = 0; Seed != 20; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    SplitMix64 Rng(Seed * 7607 + 3);
    ModelParams MP = randomContinuousParams(Rng, 6 + unsigned(Seed % 4));
    ModelKnobs K;
    K.RspareBytes = 60;
    K.Xlimit = 1.2;
    PlacementSolver Chain(MP, K);
    SolverConfig OneNode;
    OneNode.NodeLimit = 1;
    MipSolution First;
    Chain.solve(K, OneNode, &First);
    if (First.Outcome != SolveStatus::FeasibleLimit)
      continue; // proved at the root: nothing to check on this model
    ++Limited;
    MipSolution Again;
    Assignment FromChain = Chain.solve(K, {}, &Again);
    EXPECT_FALSE(Again.dominated());
    EXPECT_EQ(Again.Outcome, SolveStatus::Optimal);
    EXPECT_EQ(FromChain, enumeratorOptimum(MP, K));
  }
  EXPECT_GT(Limited, 0u);
}

TEST(Dominance, ColdReferencePathNeverDominates) {
  // With warm nodes off (--reuse without 'solve') every point is an
  // independent cold solve, even when a looser optimum would fit.
  SplitMix64 Rng(91);
  ModelParams MP = randomContinuousParams(Rng, 7);
  SolverConfig Cold;
  Cold.WarmNodes = false;
  PlacementSolver Chain(MP, looseKnobs());
  Chain.solve(looseKnobs(), Cold);
  MipSolution Again;
  Chain.solve(looseKnobs(), Cold, &Again);
  EXPECT_FALSE(Again.dominated());
  EXPECT_FALSE(Again.warmStarted());
  EXPECT_GT(Again.NodesExplored, 0u);
}

TEST(Greedy, NeverBeatsIlpAndStaysFeasible) {
  for (int Seed = 0; Seed != 10; ++Seed) {
    SplitMix64 Rng(static_cast<uint64_t>(Seed) * 31 + 7);
    ModelParams MP = randomParams(Rng, 8);
    ModelKnobs Knobs;
    Knobs.RspareBytes = 120;
    Knobs.Xlimit = 1.5;
    Assignment G = greedyPlacement(MP, Knobs);
    Assignment I = solvePlacement(MP, Knobs);
    ModelEstimate GE = evaluateAssignment(MP, G);
    ModelEstimate IE = evaluateAssignment(MP, I);
    EXPECT_LE(GE.RamBytes, Knobs.RspareBytes);
    EXPECT_GE(GE.EnergyMilliJoules, IE.EnergyMilliJoules - 1e-9)
        << "greedy should not beat the exact solver (seed " << Seed << ")";
  }
}

TEST(Greedy, EmptyWhenNothingHelps) {
  // ERam == EFlash: no gain from moving anything.
  ModelParams MP = syntheticChain({1, 1}, {10, 10});
  MP.ERam = MP.EFlash;
  Assignment G = greedyPlacement(MP);
  EXPECT_FALSE(G[0] || G[1]);
}
