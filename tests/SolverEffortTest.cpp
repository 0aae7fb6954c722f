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
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <iterator>
#include <set>

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

namespace {

/// The mip.* counter names globalMetrics() holds.
std::set<std::string> mipCounterKeys() {
  JsonValue Doc;
  EXPECT_TRUE(JsonValue::parse(globalMetrics().toJson(false), Doc));
  std::set<std::string> Keys;
  if (const JsonValue *Counters = Doc.find("counters"))
    for (const auto &[Key, Value] : Counters->members())
      if (Key.rfind("mip.", 0) == 0)
        Keys.insert(Key);
  return Keys;
}

} // namespace

// Declared first, so that in a whole-suite run no solve precedes it and
// every key it checks is one the mix creates.
TEST(SolverEffort, LedgerRowsArePublishedOnceEach) {
  // Every solveMip call publishes each RAMLOC_SOLVER_EFFORT row into its
  // mip.* counter. A row dropped from the publishing walk, counted twice
  // or published under a stale key fails here; so does a counter added
  // outside the table.
  static const char *const Published[] = {
      "mip.bound_flips",
      "mip.cold_node_solves",
      "mip.dual_pivots",
      "mip.nodes",
      "mip.pricing.drift",
      "mip.pricing.recomputes",
      "mip.primal_pivots",
      "mip.refactorizations",
      "mip.solves",
      "mip.status.optimal",
      "mip.stuck_certified",
      "mip.unconfirmed_infeasible",
      "mip.warm_node_solves",
      "mip.warm_starts",
  };
  std::set<std::string> Before = mipCounterKeys();
  std::vector<uint64_t> RowsBefore;
  for (const SolverEffortRow &Row : SolverEffortRows)
    RowsBefore.push_back(globalMetrics().counterValue(Row.Key));

  // A cold solve and a warm knob chain per model, loosest point first.
  std::vector<MipSolution> Solves;
  SolverConfig Cold;
  Cold.WarmNodes = false;
  Cold.NodeLimit = NodeCap;
  SolverConfig Warm;
  Warm.NodeLimit = NodeCap;
  for (const ModelParams &MP : {models()[0], models()[1]}) {
    (void)solvePlacement(MP, knobGrid()[4], Cold, &Solves.emplace_back());
    PlacementSolver Chain(MP, knobGrid().back());
    for (unsigned K : {8u, 4u, 0u})
      Chain.solve(knobGrid()[K], Warm, &Solves.emplace_back());
  }

  std::set<std::string> Gained, Expected;
  for (const std::string &Key : mipCounterKeys())
    if (!Before.count(Key))
      Gained.insert(Key);
  for (const char *Key : Published)
    if (!Before.count(Key))
      Expected.insert(Key);
  EXPECT_EQ(Gained, Expected);

  for (size_t I = 0; I != std::size(SolverEffortRows); ++I) {
    const SolverEffortRow &Row = SolverEffortRows[I];
    uint64_t Sum = 0;
    for (const MipSolution &S : Solves)
      Sum += S.Stats.*Row.Member;
    EXPECT_EQ(globalMetrics().counterValue(Row.Key) - RowsBefore[I], Sum)
        << Row.Key;
  }
}

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
  // 0.7 x 77394 = 54176. Splitting the Eq. 5 indicator by memory side
  // took it to 36151, with warm Infeasible verdicts confirmed against
  // the original rows. Nodes rose (3661 to 4507) while pivots fell
  // (53767 to 45763), so the gate is on pivots, not nodes. Counting the
  // pivots of warm repairs that give up before their cold rebuild made
  // it 36256: the same pivots, 105 of which had gone uncounted.
  EXPECT_LE(warmPass().Dual, 36256u) << "steepest-edge dual pivots";
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

namespace {

/// One BEEBS model at one knob point, solved warm and cold.
struct BeebsPoint {
  std::string Label;
  MipSolution Warm, Cold;
  double WarmEnergy = 0.0, ColdEnergy = 0.0;
};

/// Every BEEBS model, at O1 and O2 and in both extraction modes, over the
/// mix's knob grid (360 points), each solved once warm and once cold by
/// solvePlacement. The energy is the encoded completion's, which is free
/// of the solves' simplex residue.
const std::vector<BeebsPoint> &beebsPoints() {
  static const std::vector<BeebsPoint> Points = [] {
    std::vector<BeebsPoint> Out;
    SolverConfig Warm, Cold;
    Cold.WarmNodes = false;
    for (const std::string &Name : beebsNames())
      for (OptLevel L : {OptLevel::O1, OptLevel::O2})
        for (bool LinkerMode : {false, true}) {
          Module M = buildBeebs(Name, L, 2);
          ExtractOptions EO;
          EO.TreatLibraryAsMovable = LinkerMode;
          ModelParams MP = extractParams(M, estimateModuleFrequency(M),
                                         PowerModel::stm32f100(), EO);
          PlacementModel PM = buildPlacementModel(MP);
          auto energy = [&](const Assignment &A) {
            return PM.P.objectiveValue(PM.encode(MP, A));
          };
          for (const ModelKnobs &K : knobGrid()) {
            BeebsPoint Pt;
            Pt.Label = Name + (L == OptLevel::O1 ? " O1" : " O2") +
                       (LinkerMode ? " linker" : "") + " R" +
                       std::to_string(K.RspareBytes) + " X" +
                       std::to_string(K.Xlimit);
            Pt.WarmEnergy = energy(solvePlacement(MP, K, Warm, &Pt.Warm));
            Pt.ColdEnergy = energy(solvePlacement(MP, K, Cold, &Pt.Cold));
            Out.push_back(std::move(Pt));
          }
        }
    return Out;
  }();
  return Points;
}

} // namespace

TEST(SolverEffort, KernelTraceIsPinned) {
  // The simplex kernel's arithmetic, pinned: a change that only makes a
  // pivot cheaper keeps every floating-point operation and its order, so
  // every solve of the 360-point mix must reach the bit-identical
  // objective through the same nodes, pivots, bound flips and stuck-row
  // certificates. One FNV-1a value over all of them; a change that means
  // to move the search re-pins it and says why. (Last re-pinned when the
  // pivots of warm repairs that give up were first counted: 8 bail-outs
  // on two points, same search.)
  uint64_t H = Fnv1aOffset;
  auto fold = [&H](uint64_t V) {
    H = fnv1a64(H, std::string_view(reinterpret_cast<const char *>(&V),
                                    sizeof V));
  };
  for (const BeebsPoint &Pt : beebsPoints())
    for (const MipSolution *S : {&Pt.Warm, &Pt.Cold}) {
      fold(std::bit_cast<uint64_t>(S->Objective));
      fold(S->NodesExplored);
      fold(S->Stats.PrimalPivots);
      fold(S->Stats.DualPivots);
      fold(S->Stats.BoundFlips);
      fold(S->Stats.StuckCertified);
    }
  EXPECT_EQ(H, 0xf92c463e6a69548dULL) << std::hex << H;
}

TEST(WarmVsCold, EveryBeebsPointAgreesOnLabelAndObjective) {
  // A warm node relaxation that wrongly reports Infeasible drops a
  // feasible subtree, and the worse incumbent left standing still reads
  // as optimal (float_matmult in linker mode at tight budgets did). Every
  // point of the BEEBS mix must get the same label and the same optimal
  // energy from warm and cold branch & bound.
  for (const BeebsPoint &Pt : beebsPoints()) {
    SCOPED_TRACE(Pt.Label);
    EXPECT_EQ(Pt.Warm.Outcome, Pt.Cold.Outcome);
    EXPECT_NEAR(Pt.WarmEnergy, Pt.ColdEnergy, 1e-9 * std::abs(Pt.ColdEnergy));
  }
}
