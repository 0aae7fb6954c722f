//===- lp/SolverConfig.h - unified solver knobs and counters ----*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exact solver's four settings, the constants it runs at, and its
/// effort ledger.
///
/// The solver is one fixed algorithm: a bounded-variable simplex
/// (lp/Simplex.h) under depth-first branch & bound with pseudo-cost
/// branching (lp/BranchBound.h). Its tolerances, pivot budget,
/// refactorization cadence and node backstop are constants below, not
/// settings. SolverConfig holds only what a caller chooses: warm or cold
/// node solves and the three cooperative limits. It rides unchanged
/// through PlacementSolver -> solveMip.
///
/// The RAMLOC_SOLVER_EFFORT table is the effort ledger: one row per
/// counter, naming its SolverEffort member and its mip.* metrics key.
/// The simplex keeps one SolverEffort per tableau, each LP call reports
/// what it added, branch & bound sums them per solve (SolverStats), and
/// solveMip publishes the sum by walking the table, so concurrent solves
/// aggregate through the metrics registry. A new counter is one row.
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

/// The effort ledger, one row per counter: X(member, mip.* key). Every
/// counter is a uint64_t that only grows; an LP call's share is the
/// growth of its tableau's ledger across the call. A warm repair that
/// gives up counts its pivots but no node solve; its cold rebuild counts
/// one cold node solve and one refactorization. The stuck-row
/// certificate and the confirmation of warm Infeasible verdicts are
/// described at dualIterate and confirmInfeasible (lp/Simplex.cpp).
#define RAMLOC_SOLVER_EFFORT(X)                                              \
  /* relaxations solved from scratch (warm path: roots, rebuilds)        */  \
  X(ColdNodeSolves, "mip.cold_node_solves")                                  \
  /* relaxations settled by re-optimizing a retained basis               */  \
  X(WarmNodeSolves, "mip.warm_node_solves")                                  \
  /* primal pivots (cold optimality phase, warm clean-up pass)           */  \
  X(PrimalPivots, "mip.primal_pivots")                                       \
  /* dual pivots (cold feasibility phase, warm repair)                   */  \
  X(DualPivots, "mip.dual_pivots")                                           \
  /* bounded-variable moves across a box without a pivot                 */  \
  X(BoundFlips, "mip.bound_flips")                                           \
  /* warm tableaux re-derived (in place, or rebuilt cold)                */  \
  X(Refactorizations, "mip.refactorizations")                                \
  /* exact steepest-edge weight recomputes                               */  \
  X(PricingRecomputes, "mip.pricing.recomputes")                             \
  /* weights found drifted at a refactorization (a canary)               */  \
  X(PricingDrift, "mip.pricing.drift")                                       \
  /* relaxations proved infeasible by a stuck-row certificate            */  \
  X(StuckCertified, "mip.stuck_certified")                                   \
  /* warm Infeasible verdicts the rows did not confirm                   */  \
  X(UnconfirmedInfeasible, "mip.unconfirmed_infeasible")

/// What the solver spent: one member per RAMLOC_SOLVER_EFFORT row.
struct SolverEffort {
#define X(Member, Key) uint64_t Member = 0;
  RAMLOC_SOLVER_EFFORT(X)
#undef X

  SolverEffort &operator+=(const SolverEffort &O) {
#define X(Member, Key) Member += O.Member;
    RAMLOC_SOLVER_EFFORT(X)
#undef X
    return *this;
  }

  /// What the ledger gained since \p Before.
  SolverEffort operator-(const SolverEffort &Before) const {
    SolverEffort D;
#define X(Member, Key) D.Member = Member - Before.Member;
    RAMLOC_SOLVER_EFFORT(X)
#undef X
    return D;
  }
};

/// A ledger row as data, for code that walks the table.
struct SolverEffortRow {
  const char *Key;
  uint64_t SolverEffort::*Member;
};

inline constexpr SolverEffortRow SolverEffortRows[] = {
#define X(Member, Key) {Key, &SolverEffort::Member},
    RAMLOC_SOLVER_EFFORT(X)
#undef X
};

/// One solveMip call's ledger: its node relaxations' effort summed, plus
/// how the solve itself started. solveMip publishes the effort into the
/// mip.* metrics counters, so campaign summaries, SolverEffortTest's
/// count gates and --metrics snapshots all read one source.
struct SolverStats : SolverEffort {
  /// True when the solve itself started from a caller-provided
  /// MipWarmStart basis (knob-axis reuse) rather than a cold root.
  bool WarmStarted = false;
  /// True when the point was settled without search: a looser knob point
  /// of the same chain had a proven optimum that stays feasible here, so
  /// it is optimal here too (PlacementSolver). No solveMip call is made.
  bool Dominated = false;
};

} // namespace ramloc

#endif // RAMLOC_LP_SOLVERCONFIG_H
