//===- lp/SolverConfig.h - unified solver knobs and counters ----*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exact solver's four settings, the constants it runs at, and the
/// counter struct for its effort accounting.
///
/// The solver is one fixed algorithm: a bounded-variable simplex
/// (lp/Simplex.h) under depth-first branch & bound with pseudo-cost
/// branching (lp/BranchBound.h). Its tolerances, pivot budget,
/// refactorization cadence and node backstop are constants below, not
/// settings. SolverConfig holds only what a caller chooses: warm or cold
/// node solves and the three cooperative limits. It rides unchanged
/// through PlacementSolver -> solveMip. SolverStats is the matching
/// effort ledger: one instance per solve, mirrored into the mip.*
/// metrics so concurrent solves aggregate through the registry instead
/// of ad-hoc summing.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_LP_SOLVERCONFIG_H
#define RAMLOC_LP_SOLVERCONFIG_H

#include <cstdint>
#include <string>

namespace ramloc {

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

//===--- Fixed solver constants -------------------------------------------===//
//
// Every report is pinned to these values; solverConfigToken() spells them
// out, so editing one still invalidates old resume journals.

/// Reduced-cost / feasibility tolerance for both simplex ratio tests.
inline constexpr double LpTolerance = 1e-9;
/// Pivot budget per simplex phase.
inline constexpr unsigned LpMaxIterations = 100000;
/// Refactorization cadence: after LpRefactorInterval * (rows + vars + 1)
/// pivots, a retained warm tableau is re-derived *from its current
/// basis* — the rows are rebuilt from original problem data and
/// re-eliminated against the basis the chain has refined, which
/// re-sparsifies fill-in and discards the rounding drift dense in-place
/// updates accumulate (the dense analogue of periodic product-form/LU
/// refactorization) while keeping the basis, the nonbasic statuses and
/// the re-anchored steepest-edge weights, so long knob chains never pay
/// a cold restart. Only a numerically singular basis degrades to a
/// rebuild from scratch.
///
/// A warm chain that no longer falls back to cold rebuilds (stuck rows
/// are certified instead) keeps one tableau for a whole campaign, and
/// fill-in then makes every elimination walk dense rows; a 64x cadence
/// left the tight model-only grid ~1.3x slower (ramloc-batch --jobs=1
/// wall on a shared 4-vCPU host, best of 15: 79 vs 59 ms). 1x is as fast
/// but spends 16% more dual pivots on SolverEffortTest's mix (47529 vs
/// 40845 at 4x; 44349 at 64x).
inline constexpr unsigned LpRefactorInterval = 4;
/// |value - round(value)| below which a binary is considered integral.
inline constexpr double MipIntegerTolerance = 1e-6;
/// Absolute optimality gap at which a node is pruned.
inline constexpr double MipGapTolerance = 1e-9;
/// Node backstop for one solveMip call; SolverConfig::NodeLimit can only
/// lower it. Exceeding it returns the best incumbent with Proven = false.
inline constexpr unsigned MipMaxNodes = 200000;

/// What a caller chooses about a solve. One instance flows through
/// PlacementSolver into solveMip.
struct SolverConfig {
  /// Warm-start each node's relaxation from its parent's basis (dual
  /// simplex) instead of re-solving from scratch. Exact either way. False
  /// is the fully cold reference path (`--reuse` without `solve`): a
  /// campaign then also runs every job on its own, with no knob-axis
  /// groups and no shared solve chains (campaign/Campaign.h).
  bool WarmNodes = true;

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
  /// Node cap for one solveMip call. Effectively min'ed with MipMaxNodes
  /// (the safety backstop).
  uint64_t NodeLimit = 0;
  /// Cap on total simplex pivots (primal + dual, summed over nodes) for
  /// one solveMip call.
  uint64_t PivotLimit = 0;
};

/// Spells every SolverConfig field, and the fixed constants above, as
/// one string. Any of them can move a solve's answer or its trust label
/// (a limit truncates the proof; the warm/cold switch takes a different
/// search path, which may settle a tie between equal-energy placements
/// differently), so this is the token a campaign progress journal pins:
/// a resume under a different solver config replays nothing. Campaign
/// parallelism (--jobs) is not a solver setting and does not appear.
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
  /// periodic LpRefactorInterval cadence (which keeps the current basis)
  /// plus repair bail-outs (iteration-limited or
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
