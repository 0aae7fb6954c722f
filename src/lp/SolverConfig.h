//===- lp/SolverConfig.h - unified solver knobs and counters ----*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One configuration struct for the whole exact-solver stack and one
/// counter struct for its effort accounting.
///
/// Through PR 6 the stack threaded three structs individually —
/// SimplexOptions into every simplex entry point, MipOptions (embedding a
/// SimplexOptions) into solveMip, and ad-hoc counter fields on
/// MipSolution — so adding a knob meant touching every call site from
/// PlacementSolver down to resolveLpFromBasis. SolverConfig flattens the
/// knobs into a single value that rides unchanged through
/// PlacementSolver -> solveMip -> solveLpWarm -> resolveLpFromBasis;
/// pricing rule, node order and refactorization cadence plug in here and
/// nowhere else. SolverStats is the matching effort ledger: one instance
/// per solve, mirrored into the mip.* metrics so concurrent solves
/// aggregate through the registry instead of ad-hoc summing.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_LP_SOLVERCONFIG_H
#define RAMLOC_LP_SOLVERCONFIG_H

#include <cstdint>
#include <string>

namespace ramloc {

/// Which open node the branch & bound search expands next. Every order is
/// exact; see lp/BranchBound.h for the trade-offs.
enum class NodeOrder : uint8_t {
  Dfs,       ///< depth-first diving (warm-friendliest)
  BestBound, ///< smallest parent bound first (smallest tree)
  Hybrid,    ///< dive until an incumbent exists, then best-bound
};

const char *nodeOrderName(NodeOrder O);
bool nodeOrderFromName(const std::string &Name, NodeOrder &Out);

/// How the simplex prices its pivots. Every rule is exact: a solve that
/// proves optimality returns the same optimum under any rule. What changes
/// is how many pivots the search spends getting there, which is the
/// solver's hot-path currency on warm re-solve chains — and, because a
/// different pivot path can get numerically stuck where another does not,
/// which solves lose their proof. Campaign reports are byte-identical
/// across rules only when every solve proves optimality: on the canonical
/// 1080-config grid, --pricing=dantzig labels 2 configs feasible-limit
/// that the default proves optimal.
enum class Pricing : uint8_t {
  /// Dual steepest-edge (Forrest–Goldfarb): the leaving row is the one
  /// whose box violation is largest *per unit of basis-inverse row norm*,
  /// so one pivot repairs as much true infeasibility as possible instead
  /// of chasing raw violation magnitudes. Reference weights are exact
  /// (the dense tableau's slack block holds B^-1 outright), updated by a
  /// per-pivot recurrence and self-checked against a fresh recompute at
  /// every refactorization. The default: warm branch & bound re-solves
  /// are dual-simplex dominated, and this is where their pivots go.
  SteepestEdge,
  /// Textbook most-violated selection, both simplexes. The pre-PR-10
  /// behaviour, kept as the A/B baseline the perf gates compare against.
  Dantzig,
  /// Bland's least-index rule everywhere. Immune to cycling by
  /// construction; exists so the degenerate-pivot regressions can pin
  /// the fallback every other rule switches to when stalled.
  Bland,
};

const char *pricingName(Pricing P);
bool pricingFromName(const std::string &Name, Pricing &Out);

/// What a finished solve actually proved. LpStatus says what the final
/// point is; SolveStatus says how much to trust it — the two are
/// orthogonal once deadlines exist, because a deadline can stop a search
/// that holds a perfectly good incumbent it simply has not proven
/// optimal. A degraded answer must always carry its label: nothing in
/// the stack may report a limit-truncated solve as Optimal.
enum class SolveStatus : uint8_t {
  Optimal,          ///< incumbent returned and proven optimal
  FeasibleLimit,    ///< feasible incumbent returned; proof cut short by a
                    ///< time/node/pivot limit (best-effort answer)
  InfeasibleProven, ///< no feasible point exists, and that was proven
  Aborted,          ///< nothing trustworthy: limit hit before any
                    ///< incumbent, unbounded relaxation, or numerics
};

const char *solveStatusName(SolveStatus S);
bool solveStatusFromName(const std::string &Name, SolveStatus &Out);

/// Every knob the exact-solver stack reads, LP engine and MIP search
/// alike. One instance flows through the whole call chain; layers read
/// the fields they own and pass the value on untouched.
struct SolverConfig {
  //===--- LP engine (simplex) --------------------------------------------===//

  /// Reduced-cost / feasibility tolerance for both ratio tests.
  double Tolerance = 1e-9;
  /// Pivot budget per simplex phase.
  unsigned MaxIterations = 100000;
  /// Pivot selection rule (see Pricing). Exact either way; SteepestEdge
  /// spends the fewest dual pivots on warm chains.
  Pricing PricingRule = Pricing::SteepestEdge;
  /// Refactorization cadence: after RefactorInterval * (rows + vars + 1)
  /// pivots, a retained warm tableau is re-derived *from its current
  /// basis* — the rows are rebuilt from original problem data and
  /// re-eliminated against the basis the chain has refined, which
  /// re-sparsifies fill-in and discards the rounding drift dense
  /// in-place updates accumulate (the dense analogue of periodic
  /// product-form/LU refactorization) while keeping the basis, the
  /// nonbasic statuses and the re-anchored steepest-edge weights, so
  /// 1000-point knob chains and Pareto sweeps never pay a cold restart.
  /// Only a numerically singular basis degrades to the old
  /// rebuild-from-scratch path. 0 disables the cadence entirely.
  unsigned RefactorInterval = 64;

  //===--- MIP search (branch & bound) ------------------------------------===//

  /// |value - round(value)| below which a binary is considered integral.
  double IntegerTolerance = 1e-6;
  /// Node budget; exceeding it returns the best incumbent with
  /// Proven = false.
  unsigned MaxNodes = 200000;
  /// Absolute optimality gap at which a node is pruned.
  double GapTolerance = 1e-9;
  /// Warm-start each node's relaxation from its parent's basis (dual
  /// simplex) instead of re-solving from scratch. Exact either way;
  /// disable for the fully cold reference path (--reuse without 'solve').
  bool WarmNodes = true;
  /// Node-selection policy (see NodeOrder). Every order is exact.
  NodeOrder Order = NodeOrder::Dfs;
  /// Branch on the variable with the best pseudo-cost score (estimated
  /// objective degradation both ways), falling back to most-fractional
  /// until a variable has observed degradations. Disable for plain
  /// most-fractional branching.
  bool PseudoCostBranching = true;

  //===--- Cooperative limits (graceful degradation) ----------------------===//
  //
  // All three default to 0 = unlimited. Limits are checked cooperatively
  // at node granularity (a node's LP solve is never interrupted midway),
  // and a limited search always returns the best incumbent found so far
  // with a truthful MipSolution::Outcome — FeasibleLimit when one
  // exists, Aborted when the limit fired first. Time limits make results
  // machine-dependent by nature; node and pivot limits are deterministic.

  /// Wall-clock deadline for one solveMip call, in milliseconds.
  unsigned TimeLimitMs = 0;
  /// Node cap for one solveMip call. Effectively min'ed with MaxNodes
  /// (the long-standing safety backstop, which keeps its own default).
  uint64_t NodeLimit = 0;
  /// Cap on total simplex pivots (primal + dual, summed over nodes) for
  /// one solveMip call.
  uint64_t PivotLimit = 0;
};

/// Spells every SolverConfig field as one string. Any field can move a
/// solve's answer or its trust label (a limit truncates the proof; a
/// pricing rule, node order or warm/cold switch takes a different pivot
/// path that may get numerically stuck where another does not), so this
/// is the token a campaign progress journal pins: a resume under a
/// different solver config replays nothing. Campaign parallelism (--jobs)
/// is not a solver setting and does not appear.
std::string solverConfigToken(const SolverConfig &Cfg);

/// The solver's effort ledger: how each explored node's relaxation was
/// satisfied and what the simplex spent doing it. One instance per
/// solveMip call, published into the mip.* metrics registry counters by
/// the solve itself, so campaign summaries, perf harnesses and --metrics
/// snapshots all read one source.
struct SolverStats {
  /// A cold search has ColdNodeSolves == NodesExplored; the warm path
  /// pays one cold solve (the root, unless a MipWarmStart seeded it) and
  /// re-optimizes the rest.
  unsigned ColdNodeSolves = 0;
  unsigned WarmNodeSolves = 0;
  uint64_t PrimalPivots = 0;
  uint64_t DualPivots = 0;
  /// Ratio-test outcomes that moved a variable across its box without a
  /// pivot (bounded-variable fast path).
  uint64_t BoundFlips = 0;
  /// Warm tableaux re-derived from original problem data mid-search: the
  /// periodic SolverConfig::RefactorInterval cadence (which now keeps the
  /// current basis) plus repair bail-outs (iteration-limited or
  /// numerically stuck re-optimizations, which rebuild cold).
  uint64_t Refactorizations = 0;
  /// Steepest-edge weight recurrence updates applied (one per pivot while
  /// dual steepest-edge pricing is active).
  uint64_t PricingUpdates = 0;
  /// Exact weight recomputes from the tableau's basis-inverse block:
  /// first activations plus the per-refactorization re-anchoring.
  uint64_t PricingRecomputes = 0;
  /// Refactorization self-checks where a recurrence-maintained weight had
  /// drifted materially from its exact recompute. Drift is repaired on
  /// the spot (the recompute wins); a nonzero count is a numerics canary,
  /// not an error.
  uint64_t PricingDrift = 0;
  /// True when the solve itself started from a caller-provided
  /// MipWarmStart basis (knob-axis reuse) rather than a cold root.
  bool WarmStarted = false;
  /// True when the caller-provided incumbent survived the zero-tolerance
  /// feasibility re-check and opened the search.
  bool SeededIncumbent = false;
};

} // namespace ramloc

#endif // RAMLOC_LP_SOLVERCONFIG_H
