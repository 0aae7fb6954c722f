//===- lp/Simplex.h - bounded-variable simplex ------------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense bounded-variable tableau simplex. Integrality markers are ignored
/// here; lp/BranchBound.h layers 0/1 search on top. Problem sizes in this
/// project are small (tens to a few hundred variables), so a dense tableau
/// is plenty. The dual simplex prices by dual steepest edge, the primal by
/// largest reduced cost, and both fall back to Bland's rule when stalled.
///
/// Variables carry their [lb, ub] box implicitly: a nonbasic variable sits
/// *at* its lower or upper bound (or at zero when free) and the tableau
/// holds only one row per constraint — no explicit bound rows. That halves
/// the tableau against the classic all-bounds-as-rows formulation this
/// repo used through PR 4, and it makes every bound change a O(1) status/
/// box update plus an O(rows) basic-value refresh instead of a row edit.
/// The primal ratio test gains the bound-flip case: when the entering
/// variable's own span is the binding limit it jumps to its opposite
/// bound with no pivot at all (LpSolution::BoundFlips counts these).
///
/// Two solving modes share this header:
///
///  - solveLp / solveLpWithBounds: build a fresh tableau and solve from
///    scratch (the "cold" path): a dual-simplex feasibility phase from the
///    all-slack basis under a zero objective, then primal iterations on
///    the true objective.
///  - solveLpWarm / resolveLpFromBasis: keep the solved tableau, basis and
///    nonbasic statuses in a WarmStart handle and re-optimize with the
///    *dual* simplex after bound or RHS changes. A bound tightening or a
///    knob-row RHS patch leaves the retained basis dual-feasible (the
///    objective row is untouched), so re-optimization typically costs a
///    handful of pivots where a cold solve pays a full feasibility +
///    optimality pass — the fast path branch & bound and the knob-axis
///    sweeps ride on.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_LP_SIMPLEX_H
#define RAMLOC_LP_SIMPLEX_H

#include "lp/Problem.h"

#include <memory>

namespace ramloc {

/// Solver outcome.
enum class LpStatus : uint8_t {
  Optimal,
  Infeasible,
  Unbounded,
  IterLimit,
};

const char *lpStatusName(LpStatus S);

/// An LP solution: variable values in original problem space.
struct LpSolution {
  LpStatus Status = LpStatus::IterLimit;
  double Objective = 0.0;
  std::vector<double> Values;
  /// Primal simplex pivots this solve performed (the optimality phase, or
  /// the post-reoptimization clean-up pass on the warm path).
  unsigned Iterations = 0;
  /// Dual simplex pivots performed: the cold path's feasibility phase, or
  /// the warm path's re-optimization.
  unsigned DualIterations = 0;
  /// Ratio-test outcomes where the entering variable jumped to its other
  /// bound without a basis change (bounded-variable fast path: no pivot,
  /// no elimination, just an O(rows) value update).
  unsigned BoundFlips = 0;
  /// Steepest-edge pricing effort this solve: weight-recurrence updates
  /// applied per pivot, exact recomputes from the basis-inverse block,
  /// and self-check repairs where a recurrence weight had drifted from
  /// its recompute (see the mip.pricing.* counters).
  unsigned PricingUpdates = 0;
  unsigned PricingRecomputes = 0;
  unsigned PricingDrift = 0;
  /// True when this solution was reached by re-optimizing a retained
  /// basis rather than solving from scratch.
  bool WarmStarted = false;
  /// True when Infeasible was proved by a stuck-row certificate: the dual
  /// simplex met a violated row whose only sign-eligible entries are
  /// round-off (below the pivot tolerance), and the violation exceeds
  /// twice the most those entries can move the row's basic value —
  /// |entry| x the column's reach (a structural's box span; for a slack,
  /// the distance from its value to the far end of the range the row's
  /// activity can take over the problem's variable boxes). Without the
  /// certificate such a row could only be given up on (IterLimit), and
  /// the node would lose its warm tableau or, when a cold rebuild stuck
  /// too, its optimality proof.
  bool StuckCertified = false;
  /// True when a previously valid, structurally matching warm tableau was
  /// re-derived from original problem data for this solve — the periodic
  /// LpRefactorInterval cadence (which re-eliminates against the
  /// *current* basis, so the solve still counts as warm) or a repair after
  /// a failed re-optimization (which rebuilds cold). First builds and
  /// structure changes don't count.
  bool Refactorized = false;
  /// The solved basis: one column index per tableau row (columns are
  /// variables first, then one slack per row). With implicit bounds the
  /// tableau has exactly one row per non-degenerate constraint.
  std::vector<unsigned> Basis;
};

struct WarmState;

/// Opaque re-optimization state: the bounded-variable tableau, its basis,
/// the per-column nonbasic statuses and the bookkeeping that maps
/// variable-bound and constraint-RHS changes onto O(rows) updates. Built
/// on first use by solveLpWarm; move-only.
///
/// A WarmStart is tied to one problem *structure* (variable count,
/// constraint count and coefficients). Bounds and constraint RHS values
/// may change freely between solves — that is the point — but coefficient
/// or shape changes require a fresh handle (solveLpWarm detects shape
/// changes and rebuilds; coefficient edits it cannot see).
class WarmStart {
public:
  WarmStart();
  ~WarmStart();
  WarmStart(WarmStart &&) noexcept;
  WarmStart &operator=(WarmStart &&) noexcept;
  WarmStart(const WarmStart &) = delete;
  WarmStart &operator=(const WarmStart &) = delete;

  /// True when the handle holds a basis that resolveLpFromBasis can
  /// re-optimize from.
  bool valid() const;
  /// Drops the retained state; the next solveLpWarm builds from scratch.
  void reset();

private:
  std::unique_ptr<WarmState> S;
  friend LpSolution solveLpWarm(const LpProblem &P,
                                const std::vector<double> &Lower,
                                const std::vector<double> &Upper,
                                WarmStart &Warm);
  friend LpSolution resolveLpFromBasis(const LpProblem &P,
                                       const std::vector<double> &Lower,
                                       const std::vector<double> &Upper,
                                       WarmStart &Warm);
};

/// Solves the LP relaxation of \p P.
LpSolution solveLp(const LpProblem &P);

/// Solves with per-variable bound overrides (used by branch & bound to fix
/// binaries). \p Lower/\p Upper must have one entry per variable. An empty
/// box (Lower[j] > Upper[j]) is reported as Infeasible.
LpSolution solveLpWithBounds(const LpProblem &P,
                             const std::vector<double> &Lower,
                             const std::vector<double> &Upper);

/// Warm-capable solve: on first use (or after a structure change /
/// numerical failure) builds \p Warm's tableau at the given bounds and
/// solves cold; on later calls re-optimizes the retained basis with the
/// dual simplex (see resolveLpFromBasis). When the tableau reaches its
/// LpRefactorInterval cadence it is refactorized *in place from its
/// current basis* — rows rebuilt from original data and
/// re-eliminated against the basis the chain has refined, statuses and
/// steepest-edge weights re-anchored — and the re-optimization proceeds
/// warm; only a numerically singular basis or a re-optimization that
/// hits its iteration limit degrades to a fresh cold build. Either way
/// the result is the exact LP optimum; LpSolution::WarmStarted records
/// which path satisfied the call and LpSolution::Refactorized whether a
/// retained tableau was re-derived.
LpSolution solveLpWarm(const LpProblem &P, const std::vector<double> &Lower,
                       const std::vector<double> &Upper, WarmStart &Warm);

/// Dual-simplex re-optimization entry point: diffs \p Lower/\p Upper and
/// the constraint RHS values of \p P against the state retained in
/// \p Warm and applies the differences in place — a nonbasic variable is
/// slid along to its moved bound, a basic one merely has its box
/// re-checked, and a constraint RHS shift lands through the row's slack
/// column — then runs the dual simplex until every basic variable is back
/// inside its box. Returns IterLimit without touching the state when
/// \p Warm holds no re-optimizable basis; callers wanting automatic
/// fallback use solveLpWarm.
LpSolution resolveLpFromBasis(const LpProblem &P,
                              const std::vector<double> &Lower,
                              const std::vector<double> &Upper,
                              WarmStart &Warm);

} // namespace ramloc

#endif // RAMLOC_LP_SIMPLEX_H
