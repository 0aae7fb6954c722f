//===- tests/RandomMip.h - seeded random MIPs -------------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The random problems the solver property sweeps share (LpTest,
/// FaultTest): small 0/1 knapsacks with side rows, checked against
/// exhaustive enumeration, and placement-shaped models with ~1e7 time-row
/// coefficients beside +-1 McCormick rows, checked against the cheapest
/// LP completion of every 0/1 assignment of their binaries.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_TESTS_RANDOMMIP_H
#define RAMLOC_TESTS_RANDOMMIP_H

#include "lp/Simplex.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

namespace ramloc {

/// Exhaustive 0/1 reference optimum for small all-binary problems.
inline double bruteForceOptimum(const LpProblem &P) {
  unsigned N = P.numVariables();
  double Best = std::numeric_limits<double>::infinity();
  for (uint64_t Mask = 0; Mask != (1ULL << N); ++Mask) {
    std::vector<double> X(N);
    for (unsigned J = 0; J != N; ++J)
      X[J] = (Mask >> J) & 1;
    if (P.isFeasible(X))
      Best = std::min(Best, P.objectiveValue(X));
  }
  return Best;
}

/// A random knapsack over \p MinVars..12 binaries with one to three <=
/// rows of positive weights. All-zeros is always feasible.
inline LpProblem randomKnapsack(SplitMix64 &Rng, unsigned MinVars) {
  unsigned N = MinVars + static_cast<unsigned>(Rng.nextBelow(13 - MinVars));
  LpProblem P;
  for (unsigned J = 0; J != N; ++J)
    P.addBinary(static_cast<double>(Rng.nextInRange(-20, 5)));
  unsigned NumCons = 1 + static_cast<unsigned>(Rng.nextBelow(3));
  for (unsigned C = 0; C != NumCons; ++C) {
    std::vector<std::pair<unsigned, double>> Terms;
    for (unsigned J = 0; J != N; ++J)
      if (Rng.nextBool(0.7))
        Terms.push_back({J, static_cast<double>(Rng.nextInRange(1, 9))});
    if (Terms.empty())
      Terms.push_back({0, 1.0});
    P.addConstraint(std::move(Terms), ConstraintSense::LessEq,
                    static_cast<double>(Rng.nextInRange(3, 25)));
  }
  return P;
}

/// A placement-shaped random MIP (core/IlpModel's Eqs. 5, 7 and 9 in
/// miniature): binaries x, crossing indicators y >= |x_j - x_succ| and
/// McCormick products z = x * y, all on +-1 rows, beside a RAM budget row
/// over byte sizes and a time budget row whose coefficients are block
/// frequency x cycles, around 1e7. Two rows can never bind: one of each
/// scale.
struct ScaledModel {
  LpProblem P;
  unsigned NumX = 0;
  unsigned RamRow = 0, TimeRow = 0;
  double MaxRam = 0.0, MaxTime = 0.0; ///< budget RHS that never binds
};

inline ScaledModel scaledModel(SplitMix64 &Rng) {
  ScaledModel M;
  LpProblem &P = M.P;
  M.NumX = 5 + static_cast<unsigned>(Rng.nextBelow(4)); // 5..8
  std::vector<unsigned> X, Y, Z;
  std::vector<double> Freq(M.NumX);
  for (unsigned J = 0; J != M.NumX; ++J) {
    Freq[J] = std::pow(10.0, 3.0 + 4.0 * Rng.nextDouble());
    X.push_back(P.addBinary(-Freq[J] * double(Rng.nextInRange(1, 40))));
  }
  for (unsigned J = 0; J != M.NumX; ++J) {
    Y.push_back(P.addVariable(0.0, 1.0, Freq[J] * double(Rng.nextInRange(2, 9)),
                              /*Integer=*/false));
    Z.push_back(P.addVariable(0.0, 1.0,
                              -Freq[J] * double(Rng.nextInRange(0, 3)),
                              /*Integer=*/false));
  }
  for (unsigned J = 0; J != M.NumX; ++J) {
    unsigned S = X[(J + 1 + Rng.nextBelow(M.NumX - 1)) % M.NumX];
    P.addConstraint({{X[J], 1.0}, {S, -1.0}, {Y[J], -1.0}},
                    ConstraintSense::LessEq, 0.0);
    P.addConstraint({{X[J], -1.0}, {S, 1.0}, {Y[J], -1.0}},
                    ConstraintSense::LessEq, 0.0);
    P.addConstraint({{Z[J], 1.0}, {X[J], -1.0}}, ConstraintSense::LessEq, 0.0);
    P.addConstraint({{Z[J], 1.0}, {Y[J], -1.0}}, ConstraintSense::LessEq, 0.0);
    P.addConstraint({{Z[J], -1.0}, {X[J], 1.0}, {Y[J], 1.0}},
                    ConstraintSense::LessEq, 1.0);
  }
  std::vector<std::pair<unsigned, double>> Ram, Time, Loose, LooseTime;
  for (unsigned J = 0; J != M.NumX; ++J) {
    double Bytes = double(Rng.nextInRange(8, 400));
    double Kb = double(Rng.nextInRange(2, 16));
    Ram.push_back({X[J], Bytes});
    Ram.push_back({Z[J], Kb});
    M.MaxRam += Bytes + Kb;
    double Tb = Freq[J] * double(Rng.nextInRange(2, 9));
    Time.push_back({Y[J], Tb});
    M.MaxTime += Tb;
    // Wait-stated parts make RAM residence save cycles.
    if (Rng.nextBool(0.3)) {
      double Lb = -Freq[J] * double(Rng.nextInRange(1, 3));
      Time.push_back({X[J], Lb});
    }
    Loose.push_back({X[J], 1.0});
    LooseTime.push_back({Y[J], Tb});
  }
  M.RamRow = P.numConstraints();
  P.addConstraint(std::move(Ram), ConstraintSense::LessEq, M.MaxRam);
  M.TimeRow = P.numConstraints();
  P.addConstraint(std::move(Time), ConstraintSense::LessEq, M.MaxTime);
  P.addConstraint(std::move(Loose), ConstraintSense::LessEq,
                  double(M.NumX) + 3.0);
  P.addConstraint(std::move(LooseTime), ConstraintSense::LessEq,
                  2.0 * M.MaxTime + 1.0);
  return M;
}

/// The cheapest completion of the x's 0/1 assignment \p Mask: a cold
/// solve with every x fixed (+inf when the assignment does not fit).
inline double completion(const ScaledModel &M, uint64_t Mask) {
  const LpProblem &P = M.P;
  std::vector<double> Lo(P.numVariables()), Hi(P.numVariables());
  for (unsigned J = 0; J != P.numVariables(); ++J) {
    Lo[J] = P.Variables[J].Lower;
    Hi[J] = P.Variables[J].Upper;
  }
  for (unsigned J = 0; J != M.NumX; ++J)
    Lo[J] = Hi[J] = double((Mask >> J) & 1);
  LpSolution S = solveLpWithBounds(P, Lo, Hi);
  EXPECT_NE(S.Status, LpStatus::IterLimit) << "mask " << Mask;
  return S.Status == LpStatus::Optimal
             ? S.Objective
             : std::numeric_limits<double>::infinity();
}

/// The cheapest completion over every 0/1 assignment of the x's.
inline double bruteForceScaled(const ScaledModel &M) {
  double Best = std::numeric_limits<double>::infinity();
  for (uint64_t Mask = 0; Mask != (1ULL << M.NumX); ++Mask)
    Best = std::min(Best, completion(M, Mask));
  return Best;
}


} // namespace ramloc

#endif // RAMLOC_TESTS_RANDOMMIP_H
