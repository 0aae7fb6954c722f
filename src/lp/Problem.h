//===- lp/Problem.h - linear program description ----------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Problem container for the from-scratch LP/MIP solver that stands in for
/// GLPK (the solver the paper integrates; Section 4.3). Minimization form:
///
///   minimize    c . x
///   subject to  a_i . x  {<=, >=, ==}  b_i
///               lo_j <= x_j <= hi_j
///               x_j integral for integer-marked variables
///
/// Either bound may be infinite: the bounded-variable simplex keeps a
/// nonbasic variable at whichever finite bound it has (or at zero when
/// both are infinite — a free variable), so boxes are data, not rows. A
/// variable with lo == hi is fixed: it participates in constraints and
/// the objective but never enters a basis.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_LP_PROBLEM_H
#define RAMLOC_LP_PROBLEM_H

#include <cassert>
#include <string>
#include <vector>

namespace ramloc {

/// Constraint sense.
enum class ConstraintSense : uint8_t {
  LessEq,
  GreaterEq,
  Equal,
};

/// A linear constraint: sparse terms (variable index, coefficient).
struct LpConstraint {
  std::vector<std::pair<unsigned, double>> Terms;
  ConstraintSense Sense = ConstraintSense::LessEq;
  double Rhs = 0.0;
  std::string Name;
};

/// One decision variable.
struct LpVariable {
  double Lower = 0.0;
  double Upper = 1.0;
  double Objective = 0.0;
  bool Integer = false;
  std::string Name;
};

/// A minimization LP/MIP.
class LpProblem {
public:
  /// Adds a variable and returns its index. Bounds may be infinite on
  /// either side (a fully free variable has both infinite).
  unsigned addVariable(double Lower, double Upper, double Objective,
                       bool Integer = false, std::string Name = {}) {
    assert(Lower <= Upper && "empty variable domain");
    Variables.push_back({Lower, Upper, Objective, Integer, std::move(Name)});
    return static_cast<unsigned>(Variables.size()) - 1;
  }

  /// Adds a binary 0/1 variable.
  unsigned addBinary(double Objective, std::string Name = {}) {
    return addVariable(0.0, 1.0, Objective, /*Integer=*/true,
                       std::move(Name));
  }

  /// Adds a constraint; terms may repeat a variable (coefficients add).
  void addConstraint(std::vector<std::pair<unsigned, double>> Terms,
                     ConstraintSense Sense, double Rhs,
                     std::string Name = {}) {
    for ([[maybe_unused]] const auto &[Var, Coef] : Terms)
      assert(Var < Variables.size() && "constraint references unknown var");
    Constraints.push_back({std::move(Terms), Sense, Rhs, std::move(Name)});
  }

  unsigned numVariables() const {
    return static_cast<unsigned>(Variables.size());
  }
  unsigned numConstraints() const {
    return static_cast<unsigned>(Constraints.size());
  }

  /// Objective value of an assignment (no feasibility check).
  double objectiveValue(const std::vector<double> &X) const {
    assert(X.size() == Variables.size() && "assignment size mismatch");
    double Sum = 0.0;
    for (unsigned J = 0, E = numVariables(); J != E; ++J)
      Sum += Variables[J].Objective * X[J];
    return Sum;
  }

  /// True if \p X satisfies all constraints and bounds within \p Tol.
  bool isFeasible(const std::vector<double> &X, double Tol = 1e-6) const;

  std::vector<LpVariable> Variables;
  std::vector<LpConstraint> Constraints;
};

} // namespace ramloc

#endif // RAMLOC_LP_PROBLEM_H
