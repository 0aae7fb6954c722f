//===- lp/Simplex.cpp - bounded-variable simplex ------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
//
// Implementation notes. One engine serves both the cold and the warm path:
// a dense bounded-variable tableau in which every constraint becomes an
// equality with one bounded slack
//
//   a_i . x + s_i = b_i    with  s_i in [0, inf)   for <=
//                                s_i in (-inf, 0]  for >=
//                                s_i in [0, 0]     for ==
//
// and every variable — structural or slack — carries its [lb, ub] box as
// data. Nonbasic variables sit at a bound (or at zero when free); the
// RHS is not a tableau column but the vector Beta of current *basic
// values*, updated in closed form by every pivot, bound flip and patch.
// There are no bound rows and no artificial columns: the tableau has
// exactly one row per (non-degenerate) constraint, roughly half of the
// all-bounds-as-rows formulation this repo used through PR 4.
//
// A cold solve starts from the all-slack basis with structurals at their
// finite bounds. That start is primal infeasible exactly where >=/== rows
// bite, so feasibility is restored by a dual simplex under a *zero*
// objective (every status is trivially dual-feasible then — the
// artificial-free analogue of phase 1), after which the true objective is
// priced against the basis and primal bounded iterations finish the job.
// The primal ratio test has three outcomes: a basic variable hits a
// bound (ordinary pivot), the entering variable's own span is the
// binding limit (a bound *flip*: no pivot, no elimination, an O(rows)
// value update), or nothing binds (unbounded).
//
// The warm path keeps the whole state. Branch & bound bound changes and
// knob-row RHS patches are O(rows) updates — a nonbasic variable slides
// along its moved bound, an RHS shift lands through the row's slack
// column (which holds B^-1 e_r after any pivot sequence) — and leave the
// basis dual feasible because the objective row is untouched, so the
// dual simplex re-optimizes from where the parent left off.
//
// Rows are equilibrated to unit max-coefficient at build: the placement
// model mixes +-1 indicator rows with Fb*Tb cycle-budget rows around
// 1e7, and a tableau living across thousands of pivots cannot survive
// that spread with absolute tolerances. Row scaling never moves the
// feasible set, and the slack boxes (0 / +-inf) are scale-invariant.
//
//===----------------------------------------------------------------------===//

#include "lp/Simplex.h"

#include "lp/SolverConfig.h"
#include "support/FaultInjector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

using namespace ramloc;

bool LpProblem::isFeasible(const std::vector<double> &X, double Tol) const {
  if (X.size() != Variables.size())
    return false;
  for (unsigned J = 0, E = numVariables(); J != E; ++J)
    if (X[J] < Variables[J].Lower - Tol || X[J] > Variables[J].Upper + Tol)
      return false;
  for (const LpConstraint &C : Constraints) {
    double Lhs = 0.0;
    for (const auto &[Var, Coef] : C.Terms)
      Lhs += Coef * X[Var];
    switch (C.Sense) {
    case ConstraintSense::LessEq:
      if (Lhs > C.Rhs + Tol)
        return false;
      break;
    case ConstraintSense::GreaterEq:
      if (Lhs < C.Rhs - Tol)
        return false;
      break;
    case ConstraintSense::Equal:
      if (std::abs(Lhs - C.Rhs) > Tol)
        return false;
      break;
    }
  }
  return true;
}

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// Minimum |pivot element| either ratio test will divide by. The dual
/// test in particular would otherwise happily pick a degenerate 1e-9
/// coefficient ("ratio 0") and destroy the tableau dividing by it.
constexpr double PivotTol = 1e-7;

/// A box violation a stuck row (no above-threshold pivot element) is
/// allowed to keep. Rows are equilibrated to unit max-coefficient, so
/// this is ~1e-7 of a row's dominant term — below every tolerance the
/// callers apply — whereas rebuilding the whole warm state over it costs
/// a full cold solve. Material stuck violations still fail hard.
constexpr double StuckTol = 1e-7;

/// The smallest stuck-row violation a certificate may prove infeasible
/// (dualIterate); tableau round-off can fake a smaller one. Checked
/// against a fresh cold solve of each certified node: at the 1e-9
/// feasibility tolerance, certificates were wrong twice on the tight
/// model-only grid and 14 times in LpTest's scaled-budget sweep; at
/// StuckTol, once in the sweep; at this floor (with the 2x reach
/// margin), never — 0 of 1891 on the campaign grids.
constexpr double CertifyTol = 10 * StuckTol;

/// Floor under every steepest-edge weight. In exact arithmetic a weight
/// is >= the squared diagonal of B^-1 and cannot reach zero; the floor
/// only catches recurrence round-off from dividing by it.
constexpr double DseFloor = 1e-10;

/// Relative drift between a recurrence-maintained steepest-edge weight
/// and its exact recompute that the refactorization self-check counts as
/// material. Weights only steer row *selection*, so drift below this
/// cannot change an answer — the counter is a numerics canary.
constexpr double DseDriftTol = 1e-4;

} // namespace

namespace ramloc {

/// The retained bounded-variable state (also built throwaway for cold
/// solves). Columns are [0, NumVars) structural then one slack per row;
/// Beta holds the basic values, Stat/Lo/Hi the nonbasic side and the box
/// of every column.
struct WarmState {
  enum class VStat : uint8_t { Basic, AtLower, AtUpper, Free };

  // Structure signature: a handle is only reusable against the problem
  // shape it was built from.
  unsigned NumVars = 0;
  unsigned NumCons = 0;
  size_t TermSum = 0;

  /// Flat row-major coefficient tableau (NumRows x NumCols). The warm
  /// path lives in pivots, so elimination walks a nonzero-index list of
  /// the pivot row while it stays sparse.
  std::vector<double> T;
  std::vector<double> Obj;  ///< reduced costs, one per column (scaled)
  std::vector<double> Beta; ///< current value of each row's basic var
  std::vector<unsigned> Basis;
  std::vector<VStat> Stat;  ///< per column
  std::vector<double> Lo, Hi; ///< per-column box (slacks included)
  /// eliminate() scratch: the pivot row's nonzero columns, ascending,
  /// and the rows it updates.
  std::vector<unsigned> NzScratch;
  std::vector<unsigned> RowScratch;
  /// dualIterate scratch, member-owned like NzScratch: the dual runs
  /// once per branch & bound node, so per-call allocations would sit on
  /// the solver's hottest path.
  std::vector<std::tuple<double, double, unsigned>> CandScratch;
  std::vector<bool> DeferScratch;
  /// The movable columns — nonbasic and not fixed, the only ones a
  /// pricing scan or a ratio test can pick — as a bitset walked in
  /// ascending order. build() fills it; eliminate() (a basis change) and
  /// patchTo() (a box change) flip the bits they affect. A bound flip
  /// keeps a column nonbasic and its box as it was, so it flips none.
  std::vector<uint64_t> Movable;
  unsigned NumRows = 0;
  unsigned NumCols = 0;

  double *row(unsigned R) { return T.data() + size_t(R) * NumCols; }
  const double *row(unsigned R) const {
    return T.data() + size_t(R) * NumCols;
  }

  std::vector<int> ConsRow; ///< constraint index -> tableau row (-1 none)
  std::vector<unsigned> RowCons; ///< tableau row -> constraint index
  /// Row -> the equilibration scale its original data was multiplied by;
  /// folds an original-orientation RHS delta into stored units.
  std::vector<double> RowScale;
  /// The objective row is priced in units of the largest |c_j| for the
  /// same dynamic-range reason; extract() reports the true objective
  /// from the values.
  double ObjScale = 1.0;

  /// The constraint RHS values the state currently encodes (variable
  /// bounds are encoded directly in Lo/Hi).
  std::vector<double> AppliedRhs;

  /// Per row, the least and greatest value of its scaled activity a.x
  /// over the problem's own variable boxes (LpProblem::Variables), which
  /// contain every box branch & bound or a knob patch can set. A row's
  /// slack therefore lives in [S*b - MaxAct, S*b - MinAct] at every
  /// feasible point; the stuck-row certificate reads that range. False
  /// ActivityValid (a box wider than the problem's was applied) turns the
  /// certificate off until the next build.
  std::vector<double> MinAct, MaxAct;
  bool ActivityValid = false;

  /// False until a solve leaves a re-optimizable (dual-feasible) basis.
  bool Usable = false;

  /// The tableau row dualIterate's last Infeasible verdict rests on.
  unsigned InfeasibleRow = 0;

  /// Pivots performed since the tableau was last built or refactorized.
  /// Dense updates accumulate rounding with every pivot; past the
  /// fixed budget the handle is refactorized from its current basis
  /// (the dense analogue of periodic product-form/LU refactorization),
  /// bounding worst-case drift at a cost of one re-elimination per
  /// LpRefactorInterval * (rows + vars + 1) pivots.
  uint64_t PivotsSinceBuild = 0;

  //===--- Dual steepest-edge pricing state -------------------------------===//
  //
  // DseWeight[r] approximates ||e_r^T B^-1||^2, the squared norm of row r
  // of the basis inverse — which the slack block of the tableau holds
  // outright (column NumVars+k of row r is (B^-1)[r][k] in scaled row
  // space), so the *exact* weights are an O(rows^2) recompute away. While
  // the dual simplex is iterating the weights follow the Forrest–Goldfarb
  // recurrence instead (folded into eliminate()'s nonzero walk); primal
  // pivots merely invalidate them (DseEnabled false) and the next dual
  // entry recomputes, which is one O(rows^2) pass instead of one per
  // primal pivot.

  /// Recurrence-maintained steepest-edge weights, one per row. Meaningful
  /// only while DseValid.
  std::vector<double> DseWeight;
  /// True while DseWeight tracks the current basis.
  bool DseValid = false;
  /// True while the active iteration keeps the weights fresh through
  /// eliminate(); false makes eliminate() invalidate instead.
  bool DseEnabled = false;

  /// This tableau's lifetime effort. Pricing work and certificates are
  /// counted as they happen; an entry point adds its pivots and flips as
  /// it returns, and reports what the ledger gained across its call.
  SolverEffort Spent;

  /// Adds an entry point's counts and returns the gain since \p Before.
  SolverEffort charge(const SolverEffort &Before, unsigned Primal,
                      unsigned Dual, unsigned Flips) {
    Spent.PrimalPivots += Primal;
    Spent.DualPivots += Dual;
    Spent.BoundFlips += Flips;
    return Spent - Before;
  }

  bool needsRefactor() const {
    return PivotsSinceBuild >
           uint64_t(LpRefactorInterval) * (NumRows + NumVars + 1);
  }

  bool matches(const LpProblem &P) const {
    if (P.numVariables() != NumVars || P.numConstraints() != NumCons)
      return false;
    size_t Terms = 0;
    for (const LpConstraint &C : P.Constraints)
      Terms += C.Terms.size();
    return Terms == TermSum;
  }

  bool fixed(unsigned C) const { return Lo[C] == Hi[C]; }

  bool movable(unsigned C) const {
    return Stat[C] != VStat::Basic && !fixed(C);
  }

  /// Calls \p F on each movable column in ascending order until it
  /// returns true: the order a walk over every column skipping the rest
  /// would take, so tie-breaks and sums cannot tell the two apart.
  template <typename Fn> void scanMovable(Fn F) const {
    for (size_t W = 0; W != Movable.size(); ++W)
      for (uint64_t Bits = Movable[W]; Bits; Bits &= Bits - 1)
        if (F(static_cast<unsigned>(W * 64 + std::countr_zero(Bits))))
          return;
  }

  /// Re-derives column \p C's Movable bit from its status and box.
  void refreshMovable(unsigned C) {
    uint64_t Bit = uint64_t(1) << (C % 64);
    Movable[C / 64] = (Movable[C / 64] & ~Bit) | (movable(C) ? Bit : 0);
  }

  /// The most nonbasic column \p C can move at any feasible point of the
  /// current boxes: a structural's box span; for a slack, the distance
  /// from its current value to the far end of its implied range (a
  /// never-binding row's slack rests outside that range, so the range's
  /// width alone would understate the move).
  double reach(unsigned C) const {
    if (C < NumVars)
      return Stat[C] == VStat::Free ? Inf : Hi[C] - Lo[C];
    if (!ActivityValid)
      return Inf;
    unsigned R = C - NumVars;
    double Sb = AppliedRhs[RowCons[R]] * RowScale[R];
    double V = nbVal(C);
    return std::max(std::abs(V - (Sb - MaxAct[R])),
                    std::abs(V - (Sb - MinAct[R])));
  }

  /// The value a nonbasic column currently stands at.
  double nbVal(unsigned C) const {
    switch (Stat[C]) {
    case VStat::AtLower:
      return Lo[C];
    case VStat::AtUpper:
      return Hi[C];
    default:
      return 0.0; // Free (Basic values live in Beta)
    }
  }

  bool build(const LpProblem &P, const std::vector<double> &Lower,
             const std::vector<double> &Upper);
  bool refactorFromBasis(const LpProblem &P);
  void installObjective(const LpProblem &P);
  void computeDseWeights();
  LpStatus primalIterate(unsigned MaxIter, unsigned &Iterations,
                         unsigned &BoundFlips);
  LpStatus dualIterate(unsigned MaxIter, unsigned &Iterations,
                       unsigned &BoundFlips);
  void eliminate(unsigned Row, unsigned Col);
  bool patchTo(const LpProblem &P, const std::vector<double> &Lower,
               const std::vector<double> &Upper);
  bool anyEmptyBox() const;
  bool confirmInfeasible(const LpProblem &P) const;
  bool primalInfeasible(double Tol) const;
  void extract(const LpProblem &P, LpSolution &Sol) const;
  LpSolution solveCold(const LpProblem &P, const std::vector<double> &Lower,
                       const std::vector<double> &Upper);
};

} // namespace ramloc

bool WarmState::build(const LpProblem &P, const std::vector<double> &Lower,
                      const std::vector<double> &Upper) {
  NumVars = P.numVariables();
  NumCons = P.numConstraints();
  TermSum = 0;
  Usable = false;

  for (unsigned J = 0; J != NumVars; ++J)
    if (Lower[J] > Upper[J])
      return false; // empty box: trivially infeasible

  struct Row {
    std::vector<std::pair<unsigned, double>> Terms;
    ConstraintSense Sense;
    double Rhs;
    int Cons;
  };
  std::vector<Row> Rows;

  ConsRow.assign(NumCons, -1);
  AppliedRhs.assign(NumCons, 0.0);
  ActivityValid = true;
  for (unsigned J = 0; J != NumVars; ++J)
    ActivityValid &= Lower[J] >= P.Variables[J].Lower &&
                     Upper[J] <= P.Variables[J].Upper;
  std::vector<double> Coef(NumVars, 0.0);
  for (unsigned I = 0; I != NumCons; ++I) {
    const LpConstraint &C = P.Constraints[I];
    TermSum += C.Terms.size();
    AppliedRhs[I] = C.Rhs;
    Row R;
    R.Sense = C.Sense;
    R.Rhs = C.Rhs;
    R.Cons = static_cast<int>(I);
    // Coalesce repeated variables.
    for (const auto &[Var, C2] : C.Terms)
      Coef[Var] += C2;
    for (const auto &[Var, C2] : C.Terms) {
      (void)C2;
      if (Coef[Var] != 0.0) {
        R.Terms.push_back({Var, Coef[Var]});
        Coef[Var] = 0.0;
      }
    }
    if (R.Terms.empty()) {
      // Constant row: must hold on its own.
      bool OK = true;
      switch (R.Sense) {
      case ConstraintSense::LessEq:
        OK = R.Rhs >= -1e-7;
        break;
      case ConstraintSense::GreaterEq:
        OK = R.Rhs <= 1e-7;
        break;
      case ConstraintSense::Equal:
        OK = std::abs(R.Rhs) <= 1e-7;
        break;
      }
      if (!OK)
        return false;
      continue;
    }
    Rows.push_back(std::move(R));
  }

  NumRows = static_cast<unsigned>(Rows.size());
  NumCols = NumVars + NumRows;
  RowScale.assign(NumRows, 1.0);
  RowCons.assign(NumRows, 0);
  MinAct.assign(NumRows, 0.0);
  MaxAct.assign(NumRows, 0.0);

  T.assign(size_t(NumRows) * NumCols, 0.0);
  Obj.assign(NumCols, 0.0);
  Beta.assign(NumRows, 0.0);
  Basis.assign(NumRows, 0);
  Stat.assign(NumCols, VStat::Basic);
  Lo.assign(NumCols, 0.0);
  Hi.assign(NumCols, 0.0);
  ObjScale = 1.0;
  PivotsSinceBuild = 0;
  DseValid = false;
  DseEnabled = false;

  // Structural columns: box from the overrides, nonbasic at a finite
  // bound (lower preferred), free when both bounds are infinite. Any
  // start is dual-feasible under the zero phase-1 objective.
  for (unsigned J = 0; J != NumVars; ++J) {
    Lo[J] = Lower[J];
    Hi[J] = Upper[J];
    Stat[J] = std::isfinite(Lo[J])   ? VStat::AtLower
              : std::isfinite(Hi[J]) ? VStat::AtUpper
                                     : VStat::Free;
  }

  for (unsigned RI = 0; RI != NumRows; ++RI) {
    Row &R = Rows[RI];
    ConsRow[static_cast<unsigned>(R.Cons)] = static_cast<int>(RI);
    RowCons[RI] = static_cast<unsigned>(R.Cons);
    // Equilibrate: normalize the row to unit max-coefficient.
    double MaxCoef = 0.0;
    for (const auto &[Col, C2] : R.Terms)
      MaxCoef = std::max(MaxCoef, std::abs(C2));
    double S = MaxCoef > 0.0 ? 1.0 / MaxCoef : 1.0;
    RowScale[RI] = S;

    double *Tr = row(RI);
    for (const auto &[Col, C2] : R.Terms) {
      Tr[Col] = C2 * S;
      double AtLo = Tr[Col] * P.Variables[Col].Lower;
      double AtHi = Tr[Col] * P.Variables[Col].Upper;
      MinAct[RI] += std::min(AtLo, AtHi);
      MaxAct[RI] += std::max(AtLo, AtHi);
    }
    unsigned SlackCol = NumVars + RI;
    Tr[SlackCol] = 1.0;
    Basis[RI] = SlackCol;
    Stat[SlackCol] = VStat::Basic;
    switch (R.Sense) {
    case ConstraintSense::LessEq:
      Lo[SlackCol] = 0.0;
      Hi[SlackCol] = Inf;
      break;
    case ConstraintSense::GreaterEq:
      Lo[SlackCol] = -Inf;
      Hi[SlackCol] = 0.0;
      break;
    case ConstraintSense::Equal:
      Lo[SlackCol] = 0.0;
      Hi[SlackCol] = 0.0;
      break;
    }
    // Basic (slack) value: the scaled RHS minus the nonbasic activity.
    double B = R.Rhs * S;
    for (const auto &[Col, C2] : R.Terms)
      B -= C2 * S * nbVal(Col);
    Beta[RI] = B;
  }
  Movable.assign((NumCols + 63) / 64, 0);
  for (unsigned C = 0; C != NumCols; ++C)
    refreshMovable(C);
  return true;
}

bool WarmState::refactorFromBasis(const LpProblem &P) {
  // Re-derive the tableau from original problem data *at the current
  // basis*: rows are refilled with pristine coefficients (discarding the
  // rounding drift and fill-in dense in-place updates accumulate) and
  // re-eliminated against the basis the warm chain has refined, so the
  // re-optimization that follows starts exactly where the chain left
  // off instead of from an all-slack cold start. Statuses, boxes and
  // applied RHS values all survive; Beta is recomputed from scratch
  // against the fresh rows; steepest-edge weights are re-anchored with a
  // drift self-check. Returns false when the retained basis turns out
  // numerically singular against the pristine rows — the caller then
  // discards this state and falls back to the rebuild-from-scratch path.
  //
  // Nothing reads the old rows, so they are overwritten in place: the
  // cadence fires every few nodes, and neither a per-call allocation nor
  // a second tableau-sized buffer is paid for it.
  T.assign(size_t(NumRows) * NumCols, 0.0);
  std::vector<double> Rhs(NumRows, 0.0);

  // Refill each row in its original slot with original coefficients at
  // the same equilibration scale, so slack column NumVars+r keeps
  // meaning "row r's slack" and RHS patches keep landing through it.
  std::vector<double> Coef(NumVars, 0.0);
  for (unsigned I = 0; I != NumCons; ++I) {
    int R0 = ConsRow[I];
    if (R0 < 0)
      continue; // constant row: never materialized
    const LpConstraint &C = P.Constraints[I];
    for (const auto &[Var, C2] : C.Terms)
      Coef[Var] += C2;
    double S = RowScale[static_cast<unsigned>(R0)];
    double *Tr = row(static_cast<unsigned>(R0));
    for (const auto &[Var, C2] : C.Terms) {
      (void)C2;
      if (Coef[Var] != 0.0) {
        Tr[Var] = Coef[Var] * S;
        Coef[Var] = 0.0;
      }
    }
    Tr[NumVars + static_cast<unsigned>(R0)] = 1.0;
    // The RHS the state currently encodes, not the problem's: patches
    // already applied must not be re-applied by the next patchTo diff.
    Rhs[static_cast<unsigned>(R0)] =
        AppliedRhs[I] * S;
  }

  // Gauss-Jordan re-elimination of the current basis column set. Pivot
  // rows are chosen by largest |entry| (partial pivoting); which tableau
  // row ends up hosting which basic variable is irrelevant — all row/
  // constraint bookkeeping is keyed by slack *columns*, not row order.
  std::vector<unsigned> SavedBasis = Basis;
  std::vector<unsigned> NewBasis(NumRows, 0);
  std::vector<bool> RowUsed(NumRows, false);
  for (unsigned Pos = 0; Pos != NumRows; ++Pos) {
    unsigned Col = SavedBasis[Pos];
    int PivRow = -1;
    double BestMag = PivotTol;
    for (unsigned R = 0; R != NumRows; ++R) {
      if (RowUsed[R])
        continue;
      double Mag = std::abs(row(R)[Col]);
      if (Mag > BestMag) {
        BestMag = Mag;
        PivRow = static_cast<int>(R);
      }
    }
    if (PivRow < 0)
      return false; // singular basis against pristine data
    unsigned PR = static_cast<unsigned>(PivRow);
    RowUsed[PR] = true;
    NewBasis[PR] = Col;
    double *Prow = row(PR);
    double Piv = Prow[Col];
    for (unsigned C = 0; C != NumCols; ++C)
      Prow[C] /= Piv;
    Prow[Col] = 1.0;
    Rhs[PR] /= Piv;
    for (unsigned R = 0; R != NumRows; ++R) {
      if (R == PR)
        continue;
      double *Tr = row(R);
      double F = Tr[Col];
      if (std::abs(F) < 1e-12) {
        Tr[Col] = 0.0;
        continue;
      }
      for (unsigned C = 0; C != NumCols; ++C)
        Tr[C] -= F * Prow[C];
      Tr[Col] = 0.0;
      Rhs[R] -= F * Rhs[PR];
    }
  }

  Basis = std::move(NewBasis);
  // Basic values from first principles: row r now reads
  //   x_B[r] + sum_nonbasic T[r][c] x_c = Rhs[r].
  for (unsigned R = 0; R != NumRows; ++R) {
    double B = Rhs[R];
    const double *Tr = row(R);
    for (unsigned C = 0; C != NumCols; ++C) {
      if (Stat[C] == VStat::Basic)
        continue;
      double V = nbVal(C);
      if (V != 0.0)
        B -= Tr[C] * V;
    }
    Beta[R] = B;
  }
  installObjective(P); // exact reduced costs against the new rows
  PivotsSinceBuild = 0;

  // Steepest-edge self-check: compare the recurrence-maintained weights
  // against an exact recompute off the fresh slack block, then keep the
  // recompute. Row order changed, so compare per basic *column*.
  if (DseValid) {
    std::vector<double> OldBySlot(NumCols, 0.0);
    for (unsigned R = 0; R != NumRows; ++R)
      OldBySlot[SavedBasis[R]] = DseWeight[R];
    computeDseWeights();
    for (unsigned R = 0; R != NumRows; ++R) {
      double Old = OldBySlot[Basis[R]];
      double New = DseWeight[R];
      if (std::abs(Old - New) > DseDriftTol * std::max(1.0, New))
        ++Spent.PricingDrift;
    }
  }
  return true;
}

void WarmState::installObjective(const LpProblem &P) {
  double MaxC = 0.0;
  for (unsigned J = 0; J != NumVars; ++J)
    MaxC = std::max(MaxC, std::abs(P.Variables[J].Objective));
  ObjScale = MaxC > 0.0 ? 1.0 / MaxC : 1.0;

  std::fill(Obj.begin(), Obj.end(), 0.0);
  for (unsigned J = 0; J != NumVars; ++J)
    Obj[J] = P.Variables[J].Objective * ObjScale;
  // Price out basic variables. T[r][Basis[k]] is the identity on basic
  // columns, so one pass over the rows suffices.
  for (unsigned RI = 0; RI != NumRows; ++RI) {
    double Cost = Obj[Basis[RI]];
    if (std::abs(Cost) < LpTolerance * 1e-3)
      continue;
    const double *Tr = row(RI);
    for (unsigned C = 0; C != NumCols; ++C)
      Obj[C] -= Cost * Tr[C];
    Obj[Basis[RI]] = 0.0;
  }
}

void WarmState::computeDseWeights() {
  // Exact reference weights straight off the slack block: row r of the
  // tableau restricted to the slack columns *is* row r of B^-1 (in
  // scaled row space), so ||rho_r||^2 is a dot product with itself.
  DseWeight.assign(NumRows, 1.0);
  for (unsigned R = 0; R != NumRows; ++R) {
    const double *Tr = row(R);
    double W = 0.0;
    for (unsigned K = 0; K != NumRows; ++K) {
      double V = Tr[NumVars + K];
      W += V * V;
    }
    DseWeight[R] = std::max(W, DseFloor);
  }
  ++Spent.PricingRecomputes;
  DseValid = true;
}

/// Tr -= Factor * PR over the whole row. The rows never overlap, and
/// saying so lets the loop vectorize without a run-time alias check; each
/// element is still one multiply and one subtract.
static void subtractDense(double *__restrict__ Tr,
                          const double *__restrict__ PR, double Factor,
                          unsigned N) {
  for (unsigned C = 0; C != N; ++C)
    Tr[C] -= Factor * PR[C];
}

void WarmState::eliminate(unsigned Row, unsigned Col) {
  ++PivotsSinceBuild;
  refreshMovable(Basis[Row]);
  refreshMovable(Col);
  double *PR = row(Row);
  double Pivot = PR[Col];
  // A nonzero-index walk is arithmetically identical to the full-width
  // loop (subtracting Factor * 0 is a no-op) and much cheaper while the
  // pivot row is sparse; once fill-in has made it dense, the plain
  // contiguous loop vectorizes better than the indirection. The index is
  // ascending, so its slack columns are a suffix starting at SlackBegin.
  NzScratch.resize(NumCols);
  unsigned *Nz = NzScratch.data();
  unsigned NumNz = 0, SlackBegin = 0;
  for (unsigned C = 0; C != NumCols; ++C) {
    if (C == NumVars)
      SlackBegin = NumNz;
    Nz[NumNz] = C;
    NumNz += PR[C] != 0.0;
  }
  for (unsigned I = 0; I != NumNz; ++I)
    PR[Nz[I]] /= Pivot;
  bool Sparse = NumNz * 2 < NumCols;

  // Steepest-edge recurrence (Forrest–Goldfarb), phrased against the
  // *normalized* pivot row the elimination is about to subtract: with
  // u = slack block of PR/alpha (= rho_r / alpha, row Row of B^-1 over
  // the pivot element) the Gauss-Jordan step maps rho_i' = rho_i - a_i u
  // and rho_r' = u, hence
  //   w_i' = w_i - 2 a_i (rho_i . u) + a_i^2 ||u||^2,   w_r' = ||u||^2.
  // Both dot products walk only the pivot row's nonzero slack columns,
  // so the exact update costs a fraction of the elimination itself. A
  // pivot without the recurrence live invalidates the weights; the next
  // dual entry recomputes them in one pass.
  bool Dse = DseValid && DseEnabled;
  if (!Dse)
    DseValid = false;

  // The rows the pivot column touches; the rest are left alone.
  RowScratch.resize(NumRows);
  unsigned *Rows = RowScratch.data();
  unsigned NumUpd = 0;
  for (unsigned R = 0; R != NumRows; ++R) {
    Rows[NumUpd] = R;
    NumUpd += (R != Row) & !(std::abs(row(R)[Col]) < 1e-12);
  }

  // Weights first, while every row still holds its old values. Each sum
  // is a chain of dependent adds, so Lanes rows share one walk of the
  // slack suffix, each row's own sum still adding its terms in column
  // order; a short last group repeats its final row and drops the copies.
  // ||u||^2 rides the first walk as one more chain.
  if (Dse) {
    constexpr unsigned Lanes = 8;
    double U = 0.0;
    for (unsigned K = 0; K == 0 || K < NumUpd; K += Lanes) {
      const double *Tr[Lanes];
      for (unsigned L = 0; L != Lanes; ++L)
        Tr[L] = NumUpd ? row(Rows[std::min(K + L, NumUpd - 1)]) : PR;
      double S[Lanes] = {}, Norm = 0.0;
      for (unsigned I = SlackBegin; I != NumNz; ++I) {
        unsigned C = Nz[I];
        double P = PR[C];
        Norm += P * P;
        for (unsigned L = 0; L != Lanes; ++L)
          S[L] += Tr[L][C] * P;
      }
      if (K == 0)
        U = Norm;
      for (unsigned L = 0; L != Lanes && K + L < NumUpd; ++L) {
        double Factor = Tr[L][Col];
        double &W = DseWeight[Rows[K + L]];
        W = std::max(W - 2.0 * Factor * S[L] + Factor * Factor * U, DseFloor);
      }
    }
    DseWeight[Row] = std::max(U, DseFloor);
  }

  auto apply = [&](double *Tr) {
    double Factor = Tr[Col];
    if (Sparse) {
      for (unsigned I = 0; I != NumNz; ++I)
        Tr[Nz[I]] -= Factor * PR[Nz[I]];
    } else {
      subtractDense(Tr, PR, Factor, NumCols);
    }
    Tr[Col] = 0.0; // cut numerical drift
  };
  for (unsigned K = 0; K != NumUpd; ++K)
    apply(row(Rows[K]));
  if (!(std::abs(Obj[Col]) < 1e-12))
    apply(Obj.data());
  Basis[Row] = Col;
}

bool WarmState::primalInfeasible(double Tol) const {
  for (unsigned R = 0; R != NumRows; ++R) {
    unsigned B = Basis[R];
    if (Beta[R] < Lo[B] - Tol || Beta[R] > Hi[B] + Tol)
      return true;
  }
  return false;
}

/// Re-derives dualIterate's Infeasible verdict from the original rows, so
/// a tableau that drifted cannot drop a feasible subtree. The slack block
/// of the verdict's row holds multipliers u (row k of B^-1, in scaled row
/// space): every point of the system satisfies
///
///   sum_j (sum_k u_k S_k a_kj) x_j + sum_k u_k s_k = sum_k u_k S_k b_k.
///
/// Each x_j ranges over its current box and each slack over its sense box
/// cut down to the values its row's activity can reach over those boxes.
/// The verdict stands when the right-hand side lies outside the range the
/// left-hand side can take; the check is O(nnz) and reads no tableau
/// entry but the multipliers.
bool WarmState::confirmInfeasible(const LpProblem &P) const {
  const double *Mult = row(InfeasibleRow) + NumVars;
  std::vector<double> D(NumVars, 0.0);
  double Rhs = 0.0, Min = 0.0, Max = 0.0, Mag = 0.0;
  // Mag sums the finite magnitudes the sums are made of; the round-off
  // of each sum is a small multiple of it.
  auto addRange = [&](double Coef, double L, double H) {
    if (Coef == 0.0)
      return;
    double A = Coef * L, B = Coef * H;
    Min += std::min(A, B);
    Max += std::max(A, B);
    for (double V : {A, B})
      if (std::isfinite(V))
        Mag += std::abs(V);
  };
  for (unsigned R = 0; R != NumRows; ++R) {
    if (Mult[R] == 0.0)
      continue;
    const LpConstraint &C = P.Constraints[RowCons[R]];
    double U = Mult[R] * RowScale[R];
    double ActLo = 0.0, ActHi = 0.0;
    for (const auto &[Var, Coef] : C.Terms) {
      if (Coef == 0.0)
        continue;
      D[Var] += U * Coef;
      double A = Coef * RowScale[R] * Lo[Var];
      double B = Coef * RowScale[R] * Hi[Var];
      ActLo += std::min(A, B);
      ActHi += std::max(A, B);
    }
    double Sb = AppliedRhs[RowCons[R]] * RowScale[R];
    unsigned Slack = NumVars + R;
    double SLo = std::max(Lo[Slack], Sb - ActHi);
    double SHi = std::min(Hi[Slack], Sb - ActLo);
    if (SLo > SHi)
      return true; // the row alone cannot hold within the boxes
    Rhs += Mult[R] * Sb;
    Mag += std::abs(Mult[R] * Sb);
    addRange(Mult[R], SLo, SHi);
  }
  for (unsigned J = 0; J != NumVars; ++J)
    addRange(D[J], Lo[J], Hi[J]);
  double Tol = LpTolerance * std::max(1.0, Mag);
  return Rhs < Min - Tol || Rhs > Max + Tol;
}

bool WarmState::anyEmptyBox() const {
  for (unsigned J = 0; J != NumVars; ++J)
    if (Lo[J] > Hi[J])
      return true;
  return false;
}

LpStatus WarmState::primalIterate(unsigned MaxIter, unsigned &Iterations,
                                  unsigned &BoundFlips) {
  // Steepest-edge weights are a dual-side investment: maintaining them
  // through every primal pivot would cost O(rows^2) each, while the next
  // dual entry can recompute them all in one O(rows^2) pass. So primal
  // pivots invalidate (via eliminate()) and the dual recomputes lazily.
  DseEnabled = false;
  unsigned StallCount = 0;
  while (Iterations < MaxIter) {
    bool Bland = StallCount > NumRows + 16;

    // Entering column: an at-lower (or free) variable with negative
    // reduced cost moves up, an at-upper (or free) one with positive
    // reduced cost moves down. The largest |reduced cost| wins; once
    // stalled, Bland's first eligible column.
    int Entering = -1;
    double Dir = 0.0, Best = LpTolerance;
    scanMovable([&](unsigned C) {
      double RC = Obj[C];
      double D = 0.0;
      if (RC < -LpTolerance && Stat[C] != VStat::AtUpper)
        D = 1.0;
      else if (RC > LpTolerance && Stat[C] != VStat::AtLower)
        D = -1.0;
      if (D != 0.0 && std::abs(RC) > Best) {
        Entering = static_cast<int>(C);
        Dir = D;
        if (Bland)
          return true;
        Best = std::abs(RC);
      }
      return false;
    });
    if (Entering < 0)
      return LpStatus::Optimal;
    unsigned Q = static_cast<unsigned>(Entering);

    // Ratio test: how far can the entering variable travel before a
    // basic variable hits a bound — or before its own span runs out (a
    // bound flip, no pivot needed). Near-tied rows prefer the larger
    // pivot element for stability, then the lower basis index for
    // determinism.
    double FlipLimit =
        Stat[Q] == VStat::Free ? Inf : Hi[Q] - Lo[Q]; // >= 0, may be Inf
    int LeaveRow = -1;
    bool LeaveToLower = false;
    double BestT = Inf, BestMag = 0.0;
    for (unsigned R = 0; R != NumRows; ++R) {
      double A = Dir * row(R)[Q];
      if (std::abs(A) < PivotTol)
        continue;
      unsigned B = Basis[R];
      double t, Mag = std::abs(row(R)[Q]);
      bool ToLower;
      if (A > 0.0) { // basic value decreases towards its lower bound
        if (!std::isfinite(Lo[B]))
          continue;
        t = (Beta[R] - Lo[B]) / A;
        ToLower = true;
      } else { // basic value increases towards its upper bound
        if (!std::isfinite(Hi[B]))
          continue;
        t = (Hi[B] - Beta[R]) / (-A);
        ToLower = false;
      }
      t = std::max(t, 0.0); // clamp tiny feasibility residue
      if (LeaveRow < 0 || t < BestT - LpTolerance ||
          (t < BestT + LpTolerance &&
           (Mag > BestMag + LpTolerance ||
            (std::abs(Mag - BestMag) <= LpTolerance &&
             Basis[R] < Basis[static_cast<unsigned>(LeaveRow)])))) {
        LeaveRow = static_cast<int>(R);
        LeaveToLower = ToLower;
        BestT = t;
        BestMag = Mag;
      }
    }

    ++Iterations;
    double RcQ = Obj[Q]; // captured now: elimination zeroes the column
    double Step;
    if (FlipLimit <= BestT) {
      if (!std::isfinite(FlipLimit))
        return LpStatus::Unbounded; // nothing binds in this direction
      // Bound flip: the entering variable jumps to its opposite bound.
      Step = FlipLimit;
      for (unsigned R = 0; R != NumRows; ++R)
        Beta[R] -= Step * Dir * row(R)[Q];
      Stat[Q] = Stat[Q] == VStat::AtLower ? VStat::AtUpper : VStat::AtLower;
      ++BoundFlips;
    } else {
      Step = BestT;
      unsigned LR = static_cast<unsigned>(LeaveRow);
      unsigned P = Basis[LR];
      for (unsigned R = 0; R != NumRows; ++R)
        if (R != LR)
          Beta[R] -= Step * Dir * row(R)[Q];
      double VQ = nbVal(Q) + Step * Dir;
      Stat[P] = LeaveToLower ? VStat::AtLower : VStat::AtUpper;
      Stat[Q] = VStat::Basic;
      Beta[LR] = VQ;
      eliminate(LR, Q);
    }

    // Objective progress |rc * step| drives the anti-cycling switch.
    if (std::abs(RcQ) * Step < LpTolerance)
      ++StallCount;
    else
      StallCount = 0;
  }
  return LpStatus::IterLimit;
}

LpStatus WarmState::dualIterate(unsigned MaxIter, unsigned &Iterations,
                                unsigned &BoundFlips) {
  DseEnabled = true;
  if (!DseValid)
    computeDseWeights(); // first activation, or primal pivots intervened
  unsigned StallCount = 0;
  // Per-iteration candidate list for the bound-flipping ratio test:
  // {ratio, -|a|, column}, taken in ascending order so ties prefer the
  // larger pivot element and then the lower column index — deterministic.
  std::vector<std::tuple<double, double, unsigned>> &Cands = CandScratch;
  Cands.resize(NumCols);
  size_t NumCands = 0;
  // Rows set aside within one iteration because every eligible entering
  // coefficient was sub-threshold and the row could not be certified
  // infeasible: other violated rows are repaired first, after which a
  // deferred row is usually repairable again (or its violation gone).
  // Only when *every* violated row is stuck does the repair give up.
  // Deferrals are rare, so only an iteration that made one clears them.
  std::vector<bool> &RowDeferred = DeferScratch;
  RowDeferred.assign(NumRows, false);
  bool AnyDeferred = false;
  while (Iterations < MaxIter) {
    bool Bland = StallCount > NumRows + 16;
    if (AnyDeferred) {
      std::fill(RowDeferred.begin(), RowDeferred.end(), false);
      AnyDeferred = false;
    }

    unsigned LR = 0, P = 0;
    double Target = 0.0;
    bool BelowLb = false;
    int BlandPick = -1;
    for (;;) {
      // Leaving row: steepest-edge scores violation^2 per unit of
      // basis-inverse row norm — the row whose repair moves the true
      // (unscaled) infeasibility most per pivot; once stalled, Bland
      // takes the lowest basis index among violators. Deferred rows are
      // skipped; ties keep the first (lowest row index) for determinism.
      int Leaving = -1;
      double LeaveViol = 0.0;
      double BestScore = 0.0;
      bool DeferredViolated = false;
      for (unsigned R = 0; R != NumRows; ++R) {
        unsigned B = Basis[R];
        double ViolLo = Lo[B] - Beta[R];
        double ViolHi = Beta[R] - Hi[B];
        double V = std::max(ViolLo, ViolHi);
        if (V <= LpTolerance)
          continue;
        if (RowDeferred[R]) {
          if (V > StuckTol)
            DeferredViolated = true;
          continue;
        }
        bool Take;
        double Score = V * V / DseWeight[R];
        if (Leaving < 0)
          Take = true;
        else if (Bland)
          Take = B < Basis[static_cast<unsigned>(Leaving)];
        else
          Take = Score > BestScore;
        if (Take) {
          Leaving = static_cast<int>(R);
          LeaveViol = V;
          BestScore = Score;
          BelowLb = ViolLo >= ViolHi;
        }
      }
      if (Leaving < 0)
        // Every repairable row is inside its box. A still-violated
        // deferred row is numerically stuck: neither reparable nor
        // provably infeasible — give up and let the caller rebuild.
        return DeferredViolated ? LpStatus::IterLimit : LpStatus::Optimal;
      LR = static_cast<unsigned>(Leaving);
      P = Basis[LR];
      Target = BelowLb ? Lo[P] : Hi[P];

      // Entering candidates: the dual ratio test over sign-eligible
      // columns. The leaving variable lands on its violated bound, so
      // the entering one must move *into* its box: at-lower columns need
      // the matching coefficient sign to increase, at-upper ones to
      // decrease; free columns are eligible either way (their reduced
      // cost is ~0, so they win most ratio contests — the standard
      // preference). Fixed columns never enter: a zero-span column
      // cannot absorb any movement, and letting one in (an == row's
      // slack, the artificial analogue) would relax its row. Unlike the
      // primal test, which naturally shuns tiny pivot elements, the dual
      // test would happily divide by one, so pivoting requires a minimum
      // magnitude.
      const double *Lrow = row(LR);
      NumCands = 0;
      BlandPick = -1;
      bool SawTiny = false;
      // A column can move the leaving row towards its violated bound when
      // its entry, oriented by its side (+1 at lower, -1 at upper; a free
      // column either way), points away from the violation. Multiplying
      // by +-1 is exact, so this is the plain sign test.
      double Away = BelowLb ? -1.0 : 1.0;
      auto side = [&](unsigned C) {
        return Stat[C] == VStat::AtLower   ? 1.0
               : Stat[C] == VStat::AtUpper ? -1.0
                                           : 0.0;
      };
      auto eligible = [&](double A, double Side) {
        return Side != 0.0 ? A * Away * Side > 0.0 : A != 0.0;
      };
      // Every column's candidate is written and kept only when eligible:
      // a division more, but no unpredictable branch per column.
      scanMovable([&](unsigned C) {
        double A = Lrow[C], AbsA = std::abs(A);
        double Side = side(C);
        bool Eligible = eligible(A, Side), Tiny = AbsA < PivotTol;
        if (Bland && Eligible && !Tiny) {
          BlandPick = static_cast<int>(C);
          return true; // first eligible wins, no flips: termination first
        }
        SawTiny |= Eligible & Tiny;
        // Dual-feasibility residue is clamped: at-lower costs are >= 0
        // and at-upper <= 0 in exact arithmetic.
        double RC = Side != 0.0 ? std::max(Side * Obj[C], 0.0)
                                : std::abs(Obj[C]);
        Cands[NumCands] = {RC / AbsA, -AbsA, C};
        NumCands += Eligible & !Tiny;
        return false;
      });
      if (BlandPick >= 0 || NumCands != 0)
        break;
      InfeasibleRow = LR;
      if (!SawTiny)
        return LpStatus::Infeasible; // this row alone proves it
      // The most the sub-threshold columns can repair, summed in column
      // order; only a row without candidates needs it.
      double TinyReach = 0.0;
      scanMovable([&](unsigned C) {
        double A = Lrow[C];
        if (eligible(A, side(C)) && std::abs(A) < PivotTol)
          TinyReach += std::abs(A) * reach(C);
        return false;
      });
      // Stuck-row certificate: only the round-off columns could repair
      // this row, and together they cannot move its basic value as far
      // as the violation at any feasible point. The 2x margin and the
      // CertifyTol floor absorb the tableau's own rounding.
      if (LeaveViol > CertifyTol && LeaveViol > 2.0 * TinyReach) {
        ++Spent.StuckCertified;
        return LpStatus::Infeasible;
      }
      RowDeferred[LR] = true; // stuck for now: repair another row first
      AnyDeferred = true;
    }

    ++Iterations;
    const double *Lrow = row(LR);

    // Bound-flipping ratio test. On an all-boxed problem (every
    // placement variable lives in [0, 1]) the plain dual test chains:
    // the entering variable overshoots its own span, lands outside its
    // box and must immediately leave again, so one repair costs a dozen
    // pivots. Walking the candidates in ratio order instead, every
    // column whose whole span cannot absorb the remaining violation
    // *flips* to its opposite bound — an O(rows) value update, no
    // elimination — and the first column that can absorb the rest
    // pivots. Dual feasibility is preserved exactly because a flipped
    // column's reduced cost crosses zero at the chosen pivot ratio: its
    // new sign matches its new side. Most iterations flip nothing, so the
    // candidates are ordered lazily: each step selects the least of the
    // ones not yet taken, the order a full sort would give them.
    unsigned Q = 0;
    if (BlandPick >= 0) {
      Q = static_cast<unsigned>(BlandPick);
    } else {
      for (size_t I = 0; I != NumCands; ++I) {
        size_t Least = I;
        for (size_t K = I + 1; K != NumCands; ++K)
          if (Cands[K] < Cands[Least])
            Least = K;
        std::swap(Cands[I], Cands[Least]);
        unsigned C = std::get<2>(Cands[I]);
        double AbsA = -std::get<1>(Cands[I]);
        double Span = Stat[C] == VStat::Free ? Inf : Hi[C] - Lo[C];
        double Remaining = std::abs(Beta[LR] - Target);
        if (AbsA * Span >= Remaining || I + 1 == NumCands) {
          Q = C;
          break;
        }
        // Flip C across its box; every basic value — the violated row's
        // included — absorbs the move.
        double Delta = Stat[C] == VStat::AtLower ? Span : -Span;
        for (unsigned R = 0; R != NumRows; ++R)
          Beta[R] -= Delta * row(R)[C];
        Stat[C] =
            Stat[C] == VStat::AtLower ? VStat::AtUpper : VStat::AtLower;
        ++BoundFlips;
      }
    }

    // Pivot: the leaving variable goes to its violated bound, the
    // entering one absorbs what the flips left over.
    double DeltaQ = (Beta[LR] - Target) / Lrow[Q];
    for (unsigned R = 0; R != NumRows; ++R)
      if (R != LR)
        Beta[R] -= DeltaQ * row(R)[Q];
    double VQ = nbVal(Q) + DeltaQ;
    Stat[P] = BelowLb ? VStat::AtLower : VStat::AtUpper;
    Stat[Q] = VStat::Basic;
    Beta[LR] = VQ;
    eliminate(LR, Q);

    if (std::abs(DeltaQ) < LpTolerance)
      ++StallCount;
    else
      StallCount = 0;
  }
  return LpStatus::IterLimit;
}

/// Applies bound/RHS differences in place. Returns false when a change
/// cannot be absorbed without breaking dual feasibility (a nonbasic
/// variable forced to switch sides because its resting bound vanished) —
/// the caller then rebuilds cold.
bool WarmState::patchTo(const LpProblem &P, const std::vector<double> &Lower,
                        const std::vector<double> &Upper) {
  bool OK = true;

  // Constraint RHS deltas land through the row's slack column, which
  // holds B^-1 e_r after any pivot sequence.
  for (unsigned I = 0; I != NumCons; ++I) {
    double New = P.Constraints[I].Rhs;
    double Delta = New - AppliedRhs[I];
    if (Delta == 0.0)
      continue;
    AppliedRhs[I] = New;
    int R0 = ConsRow[I];
    if (R0 < 0)
      continue; // constant row: unchanged consistency assumed
    double D = RowScale[static_cast<unsigned>(R0)] * Delta;
    unsigned Id = NumVars + static_cast<unsigned>(R0);
    for (unsigned R = 0; R != NumRows; ++R)
      Beta[R] += D * row(R)[Id];
  }

  // Variable-bound deltas: a nonbasic variable slides along to its moved
  // bound (O(rows) down its column); a basic one merely has its box
  // re-checked by the next dual pass.
  for (unsigned J = 0; J != NumVars; ++J) {
    if (Lower[J] == Lo[J] && Upper[J] == Hi[J])
      continue;
    double OldVal = nbVal(J);
    bool WasBasic = Stat[J] == VStat::Basic;
    Lo[J] = Lower[J];
    Hi[J] = Upper[J];
    ActivityValid &= Lo[J] >= P.Variables[J].Lower &&
                     Hi[J] <= P.Variables[J].Upper;
    refreshMovable(J);
    if (WasBasic)
      continue;
    // Re-derive the resting side; a forced side switch would break dual
    // feasibility (the reduced-cost sign convention is per side).
    VStat NewStat = Stat[J];
    if (NewStat == VStat::AtLower && !std::isfinite(Lo[J]))
      NewStat = std::isfinite(Hi[J]) ? VStat::AtUpper : VStat::Free;
    else if (NewStat == VStat::AtUpper && !std::isfinite(Hi[J]))
      NewStat = std::isfinite(Lo[J]) ? VStat::AtLower : VStat::Free;
    else if (NewStat == VStat::Free &&
             (std::isfinite(Lo[J]) || std::isfinite(Hi[J])))
      NewStat = std::isfinite(Lo[J]) ? VStat::AtLower : VStat::AtUpper;
    if (NewStat != Stat[J]) {
      OK = false;
      Stat[J] = NewStat;
    }
    double NewVal = nbVal(J);
    double Delta = NewVal - OldVal;
    if (Delta != 0.0)
      for (unsigned R = 0; R != NumRows; ++R)
        Beta[R] -= Delta * row(R)[J];
  }
  return OK;
}

void WarmState::extract(const LpProblem &P, LpSolution &Sol) const {
  Sol.Values.assign(NumVars, 0.0);
  for (unsigned J = 0; J != NumVars; ++J)
    if (Stat[J] != VStat::Basic)
      Sol.Values[J] = nbVal(J);
  for (unsigned R = 0; R != NumRows; ++R)
    if (Basis[R] < NumVars)
      Sol.Values[Basis[R]] = Beta[R];
  Sol.Objective = P.objectiveValue(Sol.Values);
}

/// Builds the tableau at the given bounds and solves it from scratch:
/// one cold node solve.
LpSolution WarmState::solveCold(const LpProblem &P,
                                const std::vector<double> &Lower,
                                const std::vector<double> &Upper) {
  LpSolution Sol;
  SolverEffort Before = Spent;
  ++Spent.ColdNodeSolves;
  unsigned Primal = 0, Dual = 0, Flips = 0;
  Sol.Status = build(P, Lower, Upper) ? LpStatus::Optimal
                                      : LpStatus::Infeasible;
  // Feasibility phase: the all-slack start violates boxes exactly where
  // >=/== rows bite. Under the zero objective every status is dual
  // feasible, so the dual simplex is the artificial-free phase 1.
  if (Sol.Status == LpStatus::Optimal && primalInfeasible(LpTolerance))
    Sol.Status = dualIterate(LpMaxIterations, Dual, Flips);
  if (Sol.Status == LpStatus::Optimal) {
    installObjective(P);
    Sol.Status = primalIterate(LpMaxIterations, Primal, Flips);
  }
  Sol.Effort = charge(Before, Primal, Dual, Flips);
  if (Sol.Status == LpStatus::Optimal) {
    Usable = true;
    extract(P, Sol);
  }
  return Sol;
}

LpSolution ramloc::solveLpWithBounds(const LpProblem &P,
                                     const std::vector<double> &Lower,
                                     const std::vector<double> &Upper) {
  assert(Lower.size() == P.numVariables() &&
         Upper.size() == P.numVariables() && "bounds size mismatch");
  WarmState W;
  LpSolution Sol = W.solveCold(P, Lower, Upper);
  if (Sol.Status == LpStatus::Optimal)
    Sol.Basis = std::move(W.Basis);
  return Sol;
}

LpSolution ramloc::solveLp(const LpProblem &P) {
  std::vector<double> Lower(P.numVariables()), Upper(P.numVariables());
  for (unsigned J = 0, E = P.numVariables(); J != E; ++J) {
    Lower[J] = P.Variables[J].Lower;
    Upper[J] = P.Variables[J].Upper;
  }
  return solveLpWithBounds(P, Lower, Upper);
}

//===----------------------------------------------------------------------===//
// Warm path entry points.
//===----------------------------------------------------------------------===//

WarmStart::WarmStart() = default;
WarmStart::~WarmStart() = default;
WarmStart::WarmStart(WarmStart &&) noexcept = default;
WarmStart &WarmStart::operator=(WarmStart &&) noexcept = default;

bool WarmStart::valid() const { return S && S->Usable; }

LpSolution ramloc::resolveLpFromBasis(const LpProblem &P,
                                      const std::vector<double> &Lower,
                                      const std::vector<double> &Upper,
                                      WarmStart &Warm) {
  LpSolution Sol;
  if (!Warm.valid() || !Warm.S->matches(P))
    return Sol; // IterLimit: nothing to re-optimize from
  WarmState &W = *Warm.S;

  // Bound/RHS diffs are absorbed in place; the reduced costs are
  // untouched, so the basis stays dual feasible and the dual simplex
  // picks up directly. Drift from the incremental updates is bounded by
  // the periodic refactorization in solveLpWarm.
  if (!W.patchTo(P, Lower, Upper)) {
    // A bound side-switch the warm state cannot absorb: rebuild cold.
    W.Usable = false;
    return Sol;
  }
  SolverEffort Before = W.Spent;
  unsigned Primal = 0, Dual = 0, Flips = 0;
  LpStatus S = LpStatus::Infeasible;
  // A crossed box is infeasible by inspection; the state stays coherent,
  // so a later widening patch can continue from here.
  if (!W.anyEmptyBox()) {
    // Re-optimization earns its keep only while it is cheaper than a
    // fresh solve; a repair that drags on (a far jump across the search
    // tree, or a tableau gone dense) is cut off and rebuilt cold instead.
    // The budget is sized just above what a cold solve typically costs —
    // a repair cut off *below* that line wastes its pivots and then pays
    // the rebuild anyway, which is how a too-tight budget quietly halves
    // warm throughput.
    unsigned MaxIter =
        std::min(LpMaxIterations, std::max(128u, W.NumRows + W.NumVars));
    S = W.dualIterate(MaxIter, Dual, Flips);
    if (S == LpStatus::Optimal) {
      // The dual ratio test keeps reduced costs sign-correct in exact
      // arithmetic; a short primal pass mops up any numerical residue
      // (almost always zero iterations). It gets the same tight budget:
      // a polish that starts pivoting in earnest signals a basis not
      // worth saving, and the rebuild is cheaper than letting it wander.
      S = W.primalIterate(MaxIter, Primal, Flips);
    }
    if (S == LpStatus::Infeasible && !W.confirmInfeasible(P)) {
      // The original rows do not bear the verdict out: the tableau has
      // drifted, and only a fresh solve may drop this subtree. A stuck-row
      // certificate behind the verdict (dualIterate returns on it, so at
      // most one per call) falls with it.
      ++W.Spent.UnconfirmedInfeasible;
      W.Spent.StuckCertified = Before.StuckCertified;
      S = LpStatus::IterLimit;
    }
  }
  Sol.Status = S;
  if (S == LpStatus::Optimal || S == LpStatus::Infeasible)
    ++W.Spent.WarmNodeSolves;
  Sol.Effort = W.charge(Before, Primal, Dual, Flips);
  if (S == LpStatus::Optimal) {
    W.extract(P, Sol);
  } else if (S != LpStatus::Infeasible) {
    // Iteration limit / unbounded drift: the tableau is no longer
    // trustworthy. A dual-proven Infeasible, by contrast, leaves a
    // dual-feasible basis the next patch can continue from.
    W.Usable = false;
  }
  return Sol;
}

LpSolution ramloc::solveLpWarm(const LpProblem &P,
                               const std::vector<double> &Lower,
                               const std::vector<double> &Upper,
                               WarmStart &Warm) {
  assert(Lower.size() == P.numVariables() &&
         Upper.size() == P.numVariables() && "bounds size mismatch");
  bool HadUsableMatch = Warm.valid() && Warm.S->matches(P);
  // Fault site: pretend the retained tableau is unusable and rebuild
  // cold. Result-neutral by construction — both paths are exact — so
  // injecting here must only move effort counters, never answers; the
  // FaultTest suite pins exactly that.
  if (HadUsableMatch && FaultInjector::shouldFail("solver.degrade"))
    HadUsableMatch = false;
  // Refactorize in place when due, then repair warm. A singular basis or
  // a repair that gives up falls back to a cold rebuild, which reports
  // the effort of both attempts.
  SolverEffort Failed;
  if (HadUsableMatch) {
    WarmState &W = *Warm.S;
    SolverEffort Before = W.Spent;
    bool Resolvable = true;
    if (W.needsRefactor()) {
      Resolvable = W.refactorFromBasis(P);
      W.Spent.Refactorizations += Resolvable;
    }
    if (Resolvable) {
      LpSolution Sol = resolveLpFromBasis(P, Lower, Upper, Warm);
      if (Sol.Status != LpStatus::IterLimit &&
          Sol.Status != LpStatus::Unbounded) {
        // Fold the refactorization's work in with the resolve's.
        Sol.Effort = W.Spent - Before;
        return Sol;
      }
    }
    Failed = W.Spent - Before;
  }
  Warm.S = std::make_unique<WarmState>();
  LpSolution Sol = Warm.S->solveCold(P, Lower, Upper);
  Sol.Effort += Failed;
  Sol.Effort.Refactorizations += HadUsableMatch;
  return Sol;
}
