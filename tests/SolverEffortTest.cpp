//===- tests/SolverEffortTest.cpp - solver effort gates, stated as counts --===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// The solver's reuse mechanisms, each pinned as a ratio of counts the
// solve itself records into the mip.* metrics counters: tableau rows,
// pivots, cold node rebuilds and warm starts. Counts are deterministic,
// so unlike a wall-clock ratio a gate here cannot flake on a loaded host.
//
// Every pass solves the same mix: the Section 4 placement models of
// benchmarks whose tight budgets keep branch & bound busy, plus two in
// the paper's Section 8 "in the linker" mode, whose library-inclusive
// models are the largest ILPs this codebase produces — over a 3x3 grid of
// tight knobs, with each solve's NodeLimit set to NodeCap.
//
//===----------------------------------------------------------------------===//

#include "beebs/Beebs.h"
#include "core/IlpModel.h"
#include "core/Pipeline.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace ramloc;

namespace {

struct MixEntry {
  const char *Name;
  bool LinkerMode;
};
constexpr MixEntry Mix[] = {
    {"sha", false},         {"rijndael", false}, {"int_matmult", false},
    {"cubic", true},        {"float_matmult", true},
};

constexpr unsigned NodeCap = 1500;

const std::vector<ModelParams> &models() {
  static const std::vector<ModelParams> Models = [] {
    std::vector<ModelParams> Out;
    for (const MixEntry &E : Mix) {
      Module M = buildBeebs(E.Name, OptLevel::O2, 2);
      ExtractOptions EO;
      EO.TreatLibraryAsMovable = E.LinkerMode;
      Out.push_back(extractParams(M, estimateModuleFrequency(M),
                                  PowerModel::stm32f100(), EO));
    }
    return Out;
  }();
  return Models;
}

/// Tight budgets keep the LP optimum fractional; a loose grid would solve
/// at the root and exercise nothing.
const std::vector<ModelKnobs> &knobGrid() {
  static const std::vector<ModelKnobs> Grid = [] {
    std::vector<ModelKnobs> Out;
    for (unsigned R : {128u, 256u, 512u})
      for (double X : {1.05, 1.15, 1.3}) {
        ModelKnobs K;
        K.RspareBytes = R;
        K.Xlimit = X;
        Out.push_back(K);
      }
    return Out;
  }();
  return Grid;
}

/// One pass's work: deltas of the mip.* counters every solveMip records.
struct Effort {
  uint64_t Nodes = 0, ColdNodeSolves = 0, Refactorizations = 0;
  uint64_t Primal = 0, Dual = 0, WarmStarts = 0;

  uint64_t pivots() const { return Primal + Dual; }
  double pivotsPerNode() const { return double(pivots()) / double(Nodes); }
};

template <typename Fn> Effort countEffort(Fn &&Body) {
  static const char *const Names[] = {
      "mip.nodes",        "mip.cold_node_solves", "mip.refactorizations",
      "mip.primal_pivots", "mip.dual_pivots",     "mip.warm_starts"};
  MetricsRegistry &M = globalMetrics();
  uint64_t Before[6];
  for (unsigned I = 0; I != 6; ++I)
    Before[I] = M.counterValue(Names[I]);
  Body();
  uint64_t D[6];
  for (unsigned I = 0; I != 6; ++I)
    D[I] = M.counterValue(Names[I]) - Before[I];
  return {D[0], D[1], D[2], D[3], D[4], D[5]};
}

/// Every model at every knob point, each solve built and started afresh.
Effort solveEachPoint(bool WarmNodes) {
  SolverConfig Cfg;
  Cfg.WarmNodes = WarmNodes;
  Cfg.NodeLimit = NodeCap;
  return countEffort([&] {
    for (const ModelParams &MP : models())
      for (const ModelKnobs &K : knobGrid())
        (void)solvePlacement(MP, K, Cfg);
  });
}

/// The fully cold reference: every node of every point solved from
/// scratch. This is also the rebuild-per-point knob axis.
const Effort &coldPass() {
  static const Effort E = solveEachPoint(false);
  return E;
}

/// Warm branch & bound.
const Effort &warmPass() {
  static const Effort E = solveEachPoint(true);
  return E;
}

} // namespace

TEST(SolverEffort, BoundedTableauKeepsAtMostSixTenthsOfExplicitBoundRows) {
  // The bounded-variable simplex keeps one row per constraint; variable
  // boxes are data. The explicit-bound-row formulation carried, on top,
  // an upper-bound row per finite-upper variable and a lower-bound row
  // per integer variable.
  uint64_t BoundedRows = 0, ExplicitRows = 0;
  for (const ModelParams &MP : models()) {
    PlacementModel PM = buildPlacementModel(MP, knobGrid().front());
    BoundedRows += solveLp(PM.P).Basis.size(); // one basic column per row
    ExplicitRows += PM.P.numConstraints();
    for (const LpVariable &V : PM.P.Variables)
      ExplicitRows += std::isfinite(V.Upper) + V.Integer;
  }
  EXPECT_LE(double(BoundedRows), 0.6 * double(ExplicitRows))
      << BoundedRows << " bounded vs " << ExplicitRows << " explicit rows";
}

TEST(SolverEffort, WarmNodeSpendsAtMostHalfTheColdPivots) {
  // Solve once, branch cheap: a child re-optimizes its parent's basis
  // with the dual simplex instead of paying a fresh two-phase solve.
  const Effort &Cold = coldPass(), &Warm = warmPass();
  ASSERT_GT(Cold.Nodes, 0u);
  ASSERT_GT(Warm.Nodes, 0u);
  EXPECT_LE(Warm.pivotsPerNode(), 0.5 * Cold.pivotsPerNode())
      << "warm " << Warm.pivotsPerNode() << " vs cold "
      << Cold.pivotsPerNode() << " pivots/node";
}

TEST(SolverEffort, WarmPassRebuildsAtMostAQuarterOfItsNodes) {
  // Per-node throughput is a matter of how many nodes skip the fresh
  // tableau build: only roots and repair bail-outs solve cold, and the
  // periodic refactorizations are the only other rebuilds. With the pivot
  // gate above, this covers both costs a cold node pays: the tableau
  // build and the pivots.
  const Effort &Warm = warmPass();
  ASSERT_GT(Warm.Nodes, 0u);
  EXPECT_LE(double(Warm.ColdNodeSolves + Warm.Refactorizations),
            0.25 * double(Warm.Nodes))
      << Warm.ColdNodeSolves << " cold node solves + "
      << Warm.Refactorizations << " refactorizations over " << Warm.Nodes
      << " nodes";
}

TEST(SolverEffort, SteepestEdgeDualPivotsStayWithinThePinnedBudget) {
  // Warm re-solves are dual-simplex dominated; steepest edge has to earn
  // its weight updates there. This once gated steepest edge at 0.7x the
  // Dantzig rule's dual pivots (then 46461 vs 77394). Dantzig is gone,
  // and its count had been inflated by its own stuck-row rebuilds, so
  // the gate is now a pinned ceiling at steepest edge's count before
  // stuck rows were certified — tighter than the 0.7x gate's implied
  // 0.7 x 77394 = 54176.
  EXPECT_LE(warmPass().Dual, 46461u) << "steepest-edge dual pivots";
}

TEST(SolverEffort, KnobAxisChainSpendsAtMostHalfTheRebuildPerPointPivots) {
  // The campaign's knob axis: one PlacementSolver per model, each point an
  // RHS patch warm-started from its neighbour's basis and incumbent.
  Effort Axis = countEffort([] {
    SolverConfig Cfg;
    Cfg.NodeLimit = NodeCap;
    for (const ModelParams &MP : models()) {
      PlacementSolver Solver(MP, knobGrid().front());
      for (const ModelKnobs &K : knobGrid())
        (void)Solver.solve(K, Cfg);
    }
  });
  EXPECT_LE(double(Axis.pivots()), 0.5 * double(coldPass().pivots()))
      << Axis.pivots() << " chained vs " << coldPass().pivots()
      << " rebuild-per-point pivots";
  // The chain itself: at least half of the non-first points re-optimize
  // their neighbour's basis instead of starting cold.
  size_t Followers = models().size() * (knobGrid().size() - 1);
  EXPECT_GE(2 * Axis.WarmStarts, Followers)
      << Axis.WarmStarts << " warm starts over " << Followers
      << " chained points";
}
