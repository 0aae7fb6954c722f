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
/// node order and refactorization cadence plug in here and nowhere else.
/// SolverStats is the matching effort ledger: one instance per solve,
/// mirrored into the mip.* metrics so concurrent solves aggregate through
/// the registry instead of ad-hoc summing.
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
  ///
  /// The default re-derives every 4 * (rows + vars + 1) pivots, a few
  /// nodes' worth. A warm chain that no longer falls back to cold
  /// rebuilds (stuck rows are certified instead) keeps one tableau for a
  /// whole campaign, and fill-in then makes every elimination walk dense
  /// rows; the old 64x cadence left the tight model-only grid ~1.3x
  /// slower (ramloc-batch --jobs=1 wall on a shared 4-vCPU host, best of
  /// 15: 79 vs 59 ms). 1x is as fast but spends 16% more dual pivots on
  /// SolverEffortTest's mix (47529 vs 40845 at 4x; 44349 at 64x).
  unsigned RefactorInterval = 4;

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
/// solve's answer or its trust label (a limit truncates the proof; a node
/// order or warm/cold switch takes a different search path, which may
/// settle a tie between equal-energy placements differently), so this
/// is the token a campaign progress journal pins: a resume under a
/// different solver config replays nothing. Campaign parallelism (--jobs)
/// is not a solver setting and does not appear.
std::string solverConfigToken(const SolverConfig &Cfg);

/// The solver's effort ledger: how each explored node's relaxation was
/// satisfied and what the simplex spent doing it. One instance per
/// solveMip call, published into the mip.* metrics registry counters by
/// the solve itself, so campaign summaries, SolverEffortTest's count
/// gates and --metrics snapshots all read one source.
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
  /// Node relaxations proved infeasible by a stuck-row certificate: a
  /// violated row whose only sign-eligible entries are round-off, and
  /// whose violation exceeds the most those entries can move it (see
  /// LpSolution::StuckCertified).
  uint64_t StuckCertified = 0;
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
  /// True when the point was settled without search: a looser knob point
  /// of the same chain had a proven optimum that stays feasible here, so
  /// it is optimal here too (PlacementSolver). No solveMip call is made.
  bool Dominated = false;
};

} // namespace ramloc

#endif // RAMLOC_LP_SOLVERCONFIG_H
