//===- bench/perf_mip_throughput.cpp - warm vs cold MIP throughput -----------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// The perf harness for the solve-once/branch-cheap split. Four levels:
//
//  - Tableau level: the bounded-variable simplex keeps one row per
//    constraint — variable boxes are data, not rows — where the
//    explicit-bound-row formulation (through PR 4) carried an upper-bound
//    row per finite-upper variable plus a lower-bound row per integer
//    variable. bounded/explicit_tableau_rows count both over the model
//    mix; CI asserts the ratio stays <= 0.6.
//
//  - Node level: the same Section 4 placement MIPs solved with
//    WarmNodes off (every branch & bound node pays a fresh solve) and on
//    (every child re-optimizes its parent's basis with the dual
//    simplex). cold/warm_nodes_per_sec are branch & bound nodes retired
//    per wall second; their ratio is the per-node win, and CI asserts it
//    stays >= 2x. cold/warm_pivots_per_node record how much simplex work
//    one node costs each way.
//
//  - Pricing level: the warm node mix re-run under each SolverConfig::
//    Pricing rule. All rules are exact, so only pivot counts move; the
//    steepest-edge / Dantzig dual-pivot ratio is the headline number and
//    CI asserts it stays <= 0.7.
//
//  - Knob-axis level: a {Rspare} x {Xlimit} grid over one extracted
//    model, solved per-point from scratch (build + cold solve each
//    point) vs through one PlacementSolver (ILP built once, each point
//    an RHS patch warm-started from its neighbour's basis and
//    incumbent). configs/sec each way; the ratio is the wall-clock
//    factor a campaign's knob axis gains.
//
// Emits BENCH_mip_throughput.json in the working directory.
//
//===----------------------------------------------------------------------===//

#include "beebs/Beebs.h"
#include "campaign/Report.h"
#include "core/IlpModel.h"
#include "core/Pipeline.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace ramloc;

namespace {

// The model mix: benchmarks whose Section 4 placement models make branch
// & bound work for a living (enough movable blocks that tight budgets
// leave the relaxation fractional for a while), plus two in the paper's
// Section 8 "in the linker" mode, whose library-inclusive models are the
// largest ILPs this codebase produces (~150 variables, ~280 rows) — the
// regime where re-optimization pays most.
struct BenchModel {
  const char *Name;
  bool LinkerMode;
};
constexpr BenchModel Benchmarks[] = {
    {"sha", false},
    {"rijndael", false},
    {"int_matmult", false},
    {"cubic", true},
    {"float_matmult", true},
};

// Tight budgets keep the LP optimum fractional (the knapsack-like hard
// region); a loose grid would solve at the root and measure nothing.
const std::vector<unsigned> RsparePoints = {128, 256, 512};
const std::vector<double> XlimitPoints = {1.05, 1.15, 1.3};

/// Runs \p Body repeatedly until it has consumed at least \p MinSeconds;
/// returns the wall seconds actually spent over \p Iters iterations. Each
/// measured window also lands in the bench.measure_seconds histogram.
template <typename Fn>
double measureFor(double MinSeconds, unsigned &Iters, Fn &&Body) {
  Body(); // warm-up: one-time allocation out of the measured window
  Iters = 0;
  ScopedTimer Timer(&globalMetrics().histogram("bench.measure_seconds"));
  do {
    Body();
    ++Iters;
  } while (Timer.seconds() < MinSeconds);
  return Timer.stop();
}

/// The solver's own account of one pass's work: deltas of the mip.*
/// counters every solveMip records into the global registry. Reading the
/// registry instead of summing per-call SolverStats ledgers keeps this
/// harness's BENCH numbers drawn from the same source --metrics
/// snapshots and campaign summaries use.
struct SolverEffort {
  uint64_t Solves = 0, WarmStarts = 0;
  uint64_t Nodes = 0, Primal = 0, Dual = 0;
  uint64_t PricingUpdates = 0;
};

template <typename Fn> SolverEffort counterWindow(Fn &&Body) {
  MetricsRegistry &M = globalMetrics();
  SolverEffort Before{M.counterValue("mip.solves"),
                      M.counterValue("mip.warm_starts"),
                      M.counterValue("mip.nodes"),
                      M.counterValue("mip.primal_pivots"),
                      M.counterValue("mip.dual_pivots"),
                      M.counterValue("mip.pricing.updates")};
  Body();
  SolverEffort E;
  E.Solves = M.counterValue("mip.solves") - Before.Solves;
  E.WarmStarts = M.counterValue("mip.warm_starts") - Before.WarmStarts;
  E.Nodes = M.counterValue("mip.nodes") - Before.Nodes;
  E.Primal = M.counterValue("mip.primal_pivots") - Before.Primal;
  E.Dual = M.counterValue("mip.dual_pivots") - Before.Dual;
  E.PricingUpdates = M.counterValue("mip.pricing.updates") - Before.PricingUpdates;
  return E;
}

struct ModelSet {
  std::vector<ModelParams> Models;
  std::vector<ModelKnobs> Knobs; ///< the knob grid, benchmark-independent
};

} // namespace

int main() {
  std::printf("== MIP throughput: solve once, branch cheap ==\n\n");

  ModelSet Set;
  for (const BenchModel &B : Benchmarks) {
    Module M = buildBeebs(B.Name, OptLevel::O2, 2);
    ModuleFrequency Freq = estimateModuleFrequency(M);
    ExtractOptions EO;
    EO.TreatLibraryAsMovable = B.LinkerMode;
    Set.Models.push_back(
        extractParams(M, Freq, PowerModel::stm32f100(), EO));
  }
  for (unsigned R : RsparePoints)
    for (double X : XlimitPoints) {
      ModelKnobs K;
      K.RspareBytes = R;
      K.Xlimit = X;
      Set.Knobs.push_back(K);
    }

  // --- tableau level: bounded-variable vs explicit-bound-row rows --------
  uint64_t BoundedRows = 0, ExplicitRows = 0;
  for (const ModelParams &MP : Set.Models) {
    PlacementModel PM = buildPlacementModel(MP, Set.Knobs.front());
    // The bounded tableau's truth comes from the solver itself: one
    // basic column per row in the solved basis.
    LpSolution S = solveLp(PM.P);
    BoundedRows += S.Basis.size();
    // The explicit-bound-row formulation carried every constraint plus
    // one upper-bound row per finite-upper variable plus one lower-bound
    // row per integer variable.
    uint64_t Explicit = PM.P.numConstraints();
    for (const LpVariable &V : PM.P.Variables) {
      if (std::isfinite(V.Upper))
        ++Explicit;
      if (V.Integer)
        ++Explicit;
    }
    ExplicitRows += Explicit;
  }
  double RowRatio =
      ExplicitRows ? double(BoundedRows) / double(ExplicitRows) : 1.0;
  std::printf("tableau rows: %llu bounded-variable vs %llu "
              "explicit-bound-row (%.2fx)\n",
              static_cast<unsigned long long>(BoundedRows),
              static_cast<unsigned long long>(ExplicitRows), RowRatio);

  // Per-solve node cap: keeps a single pass to CI-friendly seconds. Both
  // modes get the same budget, so the throughput ratio stays fair.
  constexpr unsigned MaxNodes = 1500;

  // --- node level: cold two-phase vs warm dual re-optimization -----------
  auto solveAll = [&](bool WarmNodes, Pricing Rule = Pricing::SteepestEdge) {
    SolverConfig Cfg;
    Cfg.WarmNodes = WarmNodes;
    Cfg.MaxNodes = MaxNodes;
    Cfg.PricingRule = Rule;
    for (const ModelParams &MP : Set.Models)
      for (const ModelKnobs &K : Set.Knobs)
        (void)solvePlacement(MP, K, Cfg);
  };

  // One windowed pass gives the per-pass counts (the solver is
  // deterministic, so every pass costs the same); the timing loop then
  // just runs passes.
  SolverEffort ColdPass = counterWindow([&] { solveAll(false); });
  uint64_t ColdNodes = ColdPass.Nodes, ColdPrimal = ColdPass.Primal,
           ColdDual = ColdPass.Dual;
  unsigned ColdIters = 0;
  double ColdSecs = measureFor(1.0, ColdIters, [&] { solveAll(false); });
  double ColdNodesPerSec = ColdNodes * ColdIters / ColdSecs;

  SolverEffort WarmPass = counterWindow([&] { solveAll(true); });
  uint64_t WarmNodes = WarmPass.Nodes, WarmPrimal = WarmPass.Primal,
           WarmDual = WarmPass.Dual;
  unsigned WarmIters = 0;
  double WarmSecs = measureFor(1.0, WarmIters, [&] { solveAll(true); });
  double WarmNodesPerSec = WarmNodes * WarmIters / WarmSecs;

  double NodeSpeedup = WarmNodesPerSec / ColdNodesPerSec;
  double ColdPivotsPerNode =
      ColdNodes ? double(ColdPrimal + ColdDual) / double(ColdNodes) : 0.0;
  double WarmPivotsPerNode =
      WarmNodes ? double(WarmPrimal + WarmDual) / double(WarmNodes) : 0.0;
  std::printf("branch & bound nodes: %.0f/sec cold from-scratch (%llu "
              "nodes, %.1f pivots/node per pass)\n",
              ColdNodesPerSec, static_cast<unsigned long long>(ColdNodes),
              ColdPivotsPerNode);
  std::printf("                      %.0f/sec warm dual-simplex (%llu "
              "nodes, %llu primal + %llu dual pivots, %.1f pivots/node): "
              "%.1fx\n",
              WarmNodesPerSec, static_cast<unsigned long long>(WarmNodes),
              static_cast<unsigned long long>(WarmPrimal),
              static_cast<unsigned long long>(WarmDual), WarmPivotsPerNode,
              NodeSpeedup);

  // --- pricing level: per-rule pivot counts on the warm node mix ---------
  // Every rule retires the same answers (exactness is pinned by tests);
  // what differs is the pivots spent. Steepest-edge vs Dantzig on the
  // warm mix is the headline: the dual simplex dominates warm re-solves,
  // and CI asserts the steepest-edge dual-pivot total stays <= 0.7x
  // Dantzig's.
  struct RulePass {
    Pricing Rule;
    SolverEffort E;
  };
  RulePass RulePasses[] = {{Pricing::SteepestEdge, {}},
                           {Pricing::Dantzig, {}},
                           {Pricing::Bland, {}}};
  for (RulePass &RP : RulePasses) {
    RP.E = counterWindow([&] { solveAll(true, RP.Rule); });
    std::printf("pricing %-13s %llu dual + %llu primal pivots per warm "
                "pass (%llu weight updates)\n",
                pricingName(RP.Rule),
                static_cast<unsigned long long>(RP.E.Dual),
                static_cast<unsigned long long>(RP.E.Primal),
                static_cast<unsigned long long>(RP.E.PricingUpdates));
  }
  double SteepestVsDantzigDual =
      RulePasses[1].E.Dual
          ? double(RulePasses[0].E.Dual) / double(RulePasses[1].E.Dual)
          : 1.0;
  std::printf("pricing steepest-edge/dantzig dual-pivot ratio: %.2fx\n",
              SteepestVsDantzigDual);

  // --- knob-axis level: per-point rebuild vs one warm-started solver -----
  size_t KnobConfigs = Set.Models.size() * Set.Knobs.size();
  unsigned ColdAxisIters = 0;
  double ColdAxisSecs = measureFor(0.5, ColdAxisIters, [&] {
    for (const ModelParams &MP : Set.Models)
      for (const ModelKnobs &K : Set.Knobs) {
        SolverConfig Cfg;
        Cfg.WarmNodes = false;
        Cfg.MaxNodes = MaxNodes;
        (void)solvePlacement(MP, K, Cfg);
      }
  });
  double ColdAxisPerSec = KnobConfigs * ColdAxisIters / ColdAxisSecs;

  auto warmAxisPass = [&] {
    for (const ModelParams &MP : Set.Models) {
      PlacementSolver Solver(MP, Set.Knobs.front());
      for (const ModelKnobs &K : Set.Knobs) {
        SolverConfig Cfg;
        Cfg.MaxNodes = MaxNodes;
        (void)Solver.solve(K, Cfg);
      }
    }
  };
  SolverEffort AxisPass = counterWindow(warmAxisPass);
  uint64_t AxisWarm = AxisPass.WarmStarts;
  uint64_t AxisCold = AxisPass.Solves - AxisPass.WarmStarts;
  unsigned WarmAxisIters = 0;
  double WarmAxisSecs = measureFor(0.5, WarmAxisIters, warmAxisPass);
  double WarmAxisPerSec = KnobConfigs * WarmAxisIters / WarmAxisSecs;
  double AxisSpeedup = WarmAxisPerSec / ColdAxisPerSec;

  std::printf("knob axis (%zu models x %zu knob points): %.1f configs/sec "
              "rebuilt per point, %.1f configs/sec warm-chained (%.1fx; "
              "%llu cold + %llu warm solves per pass)\n",
              Set.Models.size(), Set.Knobs.size(), ColdAxisPerSec,
              WarmAxisPerSec, AxisSpeedup,
              static_cast<unsigned long long>(AxisCold),
              static_cast<unsigned long long>(AxisWarm));

  unsigned HwThreads = std::max(1u, std::thread::hardware_concurrency());
  JsonWriter W;
  W.beginObject();
  W.field("schema", "ramloc-bench-mip-throughput-v5");
  W.field("benchmarks", static_cast<uint64_t>(Set.Models.size()));
  W.field("knob_points", static_cast<uint64_t>(Set.Knobs.size()));
  W.field("bounded_tableau_rows", BoundedRows);
  W.field("explicit_tableau_rows", ExplicitRows);
  W.field("tableau_row_ratio", RowRatio);
  W.field("cold_nodes_per_pass", ColdNodes);
  W.field("warm_nodes_per_pass", WarmNodes);
  W.field("cold_primal_pivots", ColdPrimal);
  W.field("warm_primal_pivots", WarmPrimal);
  W.field("warm_dual_pivots", WarmDual);
  W.field("cold_pivots_per_node", ColdPivotsPerNode);
  W.field("warm_pivots_per_node", WarmPivotsPerNode);
  W.field("cold_nodes_per_sec", ColdNodesPerSec);
  W.field("warm_nodes_per_sec", WarmNodesPerSec);
  W.field("warm_node_speedup", NodeSpeedup);
  for (const RulePass &RP : RulePasses) {
    std::string Prefix = std::string("pricing_") + pricingName(RP.Rule);
    // "steepest-edge" -> "steepest_edge": JSON field names stay word_case.
    for (char &C : Prefix)
      if (C == '-')
        C = '_';
    W.field((Prefix + "_dual_pivots").c_str(), RP.E.Dual);
    W.field((Prefix + "_primal_pivots").c_str(), RP.E.Primal);
    W.field((Prefix + "_weight_updates").c_str(), RP.E.PricingUpdates);
  }
  W.field("pricing_steepest_vs_dantzig_dual_ratio", SteepestVsDantzigDual);
  W.field("hardware_concurrency", static_cast<uint64_t>(HwThreads));
  W.field("coldaxis_configs_per_sec", ColdAxisPerSec);
  W.field("warmaxis_configs_per_sec", WarmAxisPerSec);
  W.field("knob_axis_speedup", AxisSpeedup);
  W.field("axis_cold_solves", AxisCold);
  W.field("axis_warm_solves", AxisWarm);
  W.endObject();
  std::string Error;
  if (!writeTextFile("BENCH_mip_throughput.json", W.str() + "\n", &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("\nwrote BENCH_mip_throughput.json\n");
  return 0;
}
