//===- core/IlpModel.cpp - the Section 4 ILP model -----------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "core/IlpModel.h"

#include "support/Format.h"
#include "support/Hash.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cassert>
#include <cstring>

using namespace ramloc;

std::vector<bool> ramloc::computeInstrumented(const ModelParams &MP,
                                              const Assignment &InRam) {
  assert(InRam.size() == MP.numBlocks() && "assignment size mismatch");
  std::vector<bool> I(MP.numBlocks(), false);
  for (unsigned B = 0, E = MP.numBlocks(); B != E; ++B)
    for (unsigned S : MP.Blocks[B].Succs)
      if (InRam[S] != InRam[B])
        I[B] = true;
  return I;
}

ModelEstimate ramloc::evaluateAssignment(const ModelParams &MP,
                                         const Assignment &InRam) {
  std::vector<bool> Instrumented = computeInstrumented(MP, InRam);
  ModelEstimate E;
  double EnergyMwCycles = 0.0;

  for (unsigned B = 0, N = MP.numBlocks(); B != N; ++B) {
    const BlockParams &P = MP.Blocks[B];
    bool X = InRam[B];
    bool Y = Instrumented[B];

    double CallCycles = 0.0;
    unsigned CallPool = 0;
    for (const CallSite &CS : P.Calls) {
      if (InRam[CS.CalleeEntry] == X)
        continue;
      CallCycles += CS.Count * MP.CallInstrCycles;
      CallPool += MP.CallInstrPoolBytes + MP.CallInstrBytes;
    }

    double CyclesPerExec =
        P.Cb + (Y ? P.Tb : 0.0) + (X ? P.Lb : 0.0) + CallCycles;
    double M = X ? MP.ERam : MP.EFlash;
    EnergyMwCycles += P.Fb * CyclesPerExec * M;
    E.Cycles += P.Fb * CyclesPerExec;
    if (X)
      E.RamBytes += P.Sb + (Y ? P.Kb : 0) + CallPool;
  }

  E.EnergyMilliJoules = EnergyMwCycles / MP.ClockHz;
  E.Seconds = E.Cycles / MP.ClockHz;
  E.AvgMilliWatts = E.Cycles > 0 ? EnergyMwCycles / E.Cycles : 0.0;
  return E;
}

void PlacementModel::patchKnobs(const ModelKnobs &NewKnobs) {
  assert(NewKnobs.ClusteringAware == Knobs.ClusteringAware &&
         NewKnobs.UseCycleCost == Knobs.UseCycleCost &&
         NewKnobs.ModelCallEdges == Knobs.ModelCallEdges &&
         "structural knobs cannot be patched; rebuild the model");
  if (RamConstraint >= 0)
    P.Constraints[static_cast<unsigned>(RamConstraint)].Rhs =
        static_cast<double>(NewKnobs.RspareBytes);
  if (TimeConstraint >= 0)
    P.Constraints[static_cast<unsigned>(TimeConstraint)].Rhs =
        (NewKnobs.Xlimit - 1.0) * BaseCycles;
  Knobs = NewKnobs;
}

std::vector<double>
PlacementModel::encode(const ModelParams &MP, const Assignment &InRam) const {
  if (InRam.size() != XVar.size() || MP.numBlocks() != XVar.size())
    return {};
  std::vector<double> X(P.numVariables(), 0.0);
  for (unsigned B = 0, E = XVar.size(); B != E; ++B) {
    if (InRam[B] && XVar[B] < 0)
      return {}; // block can no longer move: the assignment is stale
    if (XVar[B] >= 0)
      X[static_cast<unsigned>(XVar[B])] = InRam[B] ? 1.0 : 0.0;
  }
  // The continuous variables are pinned at integral x: y is the crossing
  // indicator (its objective pressure is upward-positive), z = x * y (the
  // McCormick rows and its negative objective coefficient meet exactly
  // there), c the call-crossing indicator, w = x * c (only the RAM row
  // pushes on w, from above via its lower bound).
  std::vector<bool> Instrumented = computeInstrumented(MP, InRam);
  for (unsigned B = 0, E = XVar.size(); B != E; ++B) {
    double Y = Instrumented[B] ? 1.0 : 0.0;
    if (YVar[B] >= 0)
      X[static_cast<unsigned>(YVar[B])] = Y;
    if (ZVar[B] >= 0)
      X[static_cast<unsigned>(ZVar[B])] = InRam[B] ? Y : 0.0;
    for (unsigned CI = 0, CE = CallVar[B].size(); CI != CE; ++CI) {
      if (CallVar[B][CI] < 0)
        continue;
      bool Crosses =
          InRam[B] != InRam[MP.Blocks[B].Calls[CI].CalleeEntry];
      X[static_cast<unsigned>(CallVar[B][CI])] = Crosses ? 1.0 : 0.0;
      if (CallPoolVar[B][CI] >= 0)
        X[static_cast<unsigned>(CallPoolVar[B][CI])] =
            (InRam[B] && Crosses) ? 1.0 : 0.0;
    }
  }
  return X;
}

Assignment PlacementModel::decode(const MipSolution &Sol) const {
  Assignment InRam(XVar.size(), false);
  if (!Sol.feasible())
    return InRam;
  for (unsigned B = 0, E = XVar.size(); B != E; ++B)
    if (XVar[B] >= 0 &&
        Sol.Values[static_cast<unsigned>(XVar[B])] > 0.5)
      InRam[B] = true;
  return InRam;
}

namespace {

/// Folds the bytes of a trivially copyable value into an FNV-1a state.
template <typename T> uint64_t mixBytes(uint64_t H, const T &V) {
  char Bytes[sizeof(T)];
  std::memcpy(Bytes, &V, sizeof(T));
  return fnv1a64(H, std::string_view(Bytes, sizeof(T)));
}

} // namespace

uint64_t PlacementModel::contentKey() const {
  uint64_t H = Fnv1aOffset;
  H = mixBytes(H, P.numVariables());
  for (const LpVariable &V : P.Variables) {
    H = mixBytes(H, V.Lower);
    H = mixBytes(H, V.Upper);
    H = mixBytes(H, V.Objective);
    H = mixBytes(H, V.Integer);
  }
  H = mixBytes(H, P.numConstraints());
  for (const LpConstraint &C : P.Constraints) {
    H = mixBytes(H, C.Sense);
    H = mixBytes(H, C.Rhs);
    H = mixBytes(H, C.Terms.size());
    for (const auto &[Var, Coef] : C.Terms) {
      H = mixBytes(H, Var);
      H = mixBytes(H, Coef);
    }
  }
  H = mixBytes(H, BaseCycles);
  H = mixBytes(H, RamConstraint);
  return mixBytes(H, TimeConstraint);
}

PlacementModel ramloc::buildPlacementModel(const ModelParams &MP,
                                           const ModelKnobs &Knobs) {
  PlacementModel PM;
  unsigned N = MP.numBlocks();
  PM.XVar.assign(N, -1);
  PM.YVar.assign(N, -1);
  PM.ZVar.assign(N, -1);
  LpProblem &P = PM.P;

  const double DeltaE = MP.ERam - MP.EFlash; // negative: RAM is cheaper

  auto costC = [&](const BlockParams &B) {
    return Knobs.UseCycleCost ? B.Cb : B.Ib;
  };
  auto costT = [&](const BlockParams &B) {
    return Knobs.UseCycleCost ? B.Tb : B.TbInstr;
  };
  auto costL = [&](const BlockParams &B) {
    return Knobs.UseCycleCost ? B.Lb : 0.0;
  };

  // --- variables ----------------------------------------------------------
  for (unsigned B = 0; B != N; ++B) {
    const BlockParams &Blk = MP.Blocks[B];
    PM.BaseEnergyTerm += Blk.Fb * costC(Blk) * MP.EFlash;
    PM.BaseCycles += Blk.Fb * costC(Blk);

    if (Blk.Movable && Blk.Sb > 0) {
      double XCoef =
          Blk.Fb * (costC(Blk) * DeltaE + costL(Blk) * MP.ERam);
      PM.XVar[B] = static_cast<int>(
          P.addBinary(XCoef, formatString("x_%s", Blk.Name.c_str())));
    }
  }

  if (Knobs.ClusteringAware) {
    for (unsigned B = 0; B != N; ++B) {
      const BlockParams &Blk = MP.Blocks[B];
      if (Blk.Succs.empty() || costT(Blk) <= 0.0)
        continue;
      // y is only needed when the block or one of its successors can
      // move; otherwise the edge can never cross.
      bool AnyMovable = PM.XVar[B] >= 0;
      for (unsigned S : Blk.Succs)
        AnyMovable |= PM.XVar[S] >= 0;
      if (!AnyMovable)
        continue;
      // y's objective pressure is upward-positive, so a continuous [0,1]
      // variable settles exactly at the indicator value.
      double YCoef = Blk.Fb * costT(Blk) * MP.EFlash;
      PM.YVar[B] = static_cast<int>(P.addVariable(
          0.0, 1.0, YCoef, /*Integer=*/false,
          formatString("y_%s", Blk.Name.c_str())));
      if (PM.XVar[B] >= 0) {
        double ZCoef = Blk.Fb * costT(Blk) * DeltaE;
        PM.ZVar[B] = static_cast<int>(P.addVariable(
            0.0, 1.0, ZCoef, /*Integer=*/false,
            formatString("z_%s", Blk.Name.c_str())));
      }
    }
  }

  // Call-edge indicators c >= |x_caller - x_calleeEntry|, plus the
  // product w = x_caller * c: a rewritten call in a RAM-resident caller
  // places its literal-pool word in RAM, which Eq. 7 must account for.
  std::vector<std::vector<int>> &CallVar = PM.CallVar;
  std::vector<std::vector<int>> &CallPoolVar = PM.CallPoolVar;
  CallVar.assign(N, {});
  CallPoolVar.assign(N, {});
  if (Knobs.ModelCallEdges) {
    for (unsigned B = 0; B != N; ++B) {
      const BlockParams &Blk = MP.Blocks[B];
      CallVar[B].assign(Blk.Calls.size(), -1);
      CallPoolVar[B].assign(Blk.Calls.size(), -1);
      for (unsigned CI = 0, CE = Blk.Calls.size(); CI != CE; ++CI) {
        const CallSite &CS = Blk.Calls[CI];
        if (PM.XVar[B] < 0 && PM.XVar[CS.CalleeEntry] < 0)
          continue; // neither end can move
        double Coef =
            Blk.Fb * CS.Count * MP.CallInstrCycles * MP.EFlash;
        CallVar[B][CI] = static_cast<int>(P.addVariable(
            0.0, 1.0, Coef, /*Integer=*/false,
            formatString("c_%s_%u", Blk.Name.c_str(), CI)));
        if (PM.XVar[B] >= 0)
          CallPoolVar[B][CI] = static_cast<int>(P.addVariable(
              0.0, 1.0, 0.0, /*Integer=*/false,
              formatString("w_%s_%u", Blk.Name.c_str(), CI)));
      }
    }
  }

  // --- constraints ---------------------------------------------------------
  // y_b >= x_b - x_s and y_b >= x_s - x_b  (Eq. 5 linearised).
  auto addAbsRows = [&P](int AbsVar, int AVar, int BVar) {
    // AbsVar >= AVar - BVar  <=>  AVar - BVar - AbsVar <= 0
    std::vector<std::pair<unsigned, double>> T1, T2;
    auto term = [](std::vector<std::pair<unsigned, double>> &T, int Var,
                   double Coef) {
      if (Var >= 0)
        T.push_back({static_cast<unsigned>(Var), Coef});
    };
    term(T1, AVar, 1.0);
    term(T1, BVar, -1.0);
    term(T1, AbsVar, -1.0);
    if (!T1.empty())
      P.addConstraint(std::move(T1), ConstraintSense::LessEq, 0.0);
    term(T2, AVar, -1.0);
    term(T2, BVar, 1.0);
    term(T2, AbsVar, -1.0);
    if (!T2.empty())
      P.addConstraint(std::move(T2), ConstraintSense::LessEq, 0.0);
  };

  for (unsigned B = 0; B != N; ++B) {
    if (PM.YVar[B] < 0)
      continue;
    for (unsigned S : MP.Blocks[B].Succs)
      addAbsRows(PM.YVar[B], PM.XVar[B], PM.XVar[S]);
    // z = x * y (McCormick; x,y in [0,1] with x binary pins z exactly).
    if (PM.ZVar[B] >= 0) {
      unsigned Z = static_cast<unsigned>(PM.ZVar[B]);
      unsigned X = static_cast<unsigned>(PM.XVar[B]);
      unsigned Y = static_cast<unsigned>(PM.YVar[B]);
      P.addConstraint({{Z, 1.0}, {X, -1.0}}, ConstraintSense::LessEq, 0.0);
      P.addConstraint({{Z, 1.0}, {Y, -1.0}}, ConstraintSense::LessEq, 0.0);
      P.addConstraint({{Z, -1.0}, {X, 1.0}, {Y, 1.0}},
                      ConstraintSense::LessEq, 1.0);
    }
  }

  for (unsigned B = 0; B != N; ++B) {
    for (unsigned CI = 0, CE = CallVar[B].size(); CI != CE; ++CI) {
      if (CallVar[B][CI] < 0)
        continue;
      addAbsRows(CallVar[B][CI], PM.XVar[B],
                 PM.XVar[MP.Blocks[B].Calls[CI].CalleeEntry]);
      // w >= x + c - 1: the only pressure on w is the RAM row, so the
      // lower bound pins it to the product at integral points.
      if (CallPoolVar[B][CI] >= 0) {
        unsigned W = static_cast<unsigned>(CallPoolVar[B][CI]);
        unsigned X = static_cast<unsigned>(PM.XVar[B]);
        unsigned C = static_cast<unsigned>(CallVar[B][CI]);
        P.addConstraint({{X, 1.0}, {C, 1.0}, {W, -1.0}},
                        ConstraintSense::LessEq, 1.0);
      }
    }
  }

  // RAM budget (Eq. 7): sum x*(Sb) + z*(Kb) <= Rspare.
  {
    std::vector<std::pair<unsigned, double>> Terms;
    for (unsigned B = 0; B != N; ++B) {
      if (PM.XVar[B] >= 0)
        Terms.push_back({static_cast<unsigned>(PM.XVar[B]),
                         static_cast<double>(MP.Blocks[B].Sb)});
      if (Knobs.ClusteringAware && PM.ZVar[B] >= 0)
        Terms.push_back({static_cast<unsigned>(PM.ZVar[B]),
                         static_cast<double>(MP.Blocks[B].Kb)});
      for (unsigned CI = 0, CE = CallPoolVar[B].size(); CI != CE; ++CI)
        if (CallPoolVar[B][CI] >= 0)
          Terms.push_back(
              {static_cast<unsigned>(CallPoolVar[B][CI]),
               static_cast<double>(MP.CallInstrPoolBytes +
                                   MP.CallInstrBytes)});
    }
    if (!Terms.empty()) {
      PM.RamConstraint = static_cast<int>(P.numConstraints());
      P.addConstraint(std::move(Terms), ConstraintSense::LessEq,
                      static_cast<double>(Knobs.RspareBytes), "ram");
    }
  }

  // Time budget (Eq. 9): modelled cycles <= Xlimit * base cycles.
  {
    std::vector<std::pair<unsigned, double>> Terms;
    for (unsigned B = 0; B != N; ++B) {
      const BlockParams &Blk = MP.Blocks[B];
      // Lb may be negative on wait-stated devices (RAM residence saves
      // the flash wait cycles), so keep those terms: they loosen the
      // budget exactly as the hardware would.
      if (PM.XVar[B] >= 0 && costL(Blk) != 0.0)
        Terms.push_back({static_cast<unsigned>(PM.XVar[B]),
                         Blk.Fb * costL(Blk)});
      if (PM.YVar[B] >= 0)
        Terms.push_back({static_cast<unsigned>(PM.YVar[B]),
                         Blk.Fb * costT(Blk)});
      for (unsigned CI = 0, CE = CallVar[B].size(); CI != CE; ++CI)
        if (CallVar[B][CI] >= 0)
          Terms.push_back({static_cast<unsigned>(CallVar[B][CI]),
                           Blk.Fb * Blk.Calls[CI].Count *
                               MP.CallInstrCycles});
    }
    double Budget = (Knobs.Xlimit - 1.0) * PM.BaseCycles;
    if (!Terms.empty()) {
      PM.TimeConstraint = static_cast<int>(P.numConstraints());
      P.addConstraint(std::move(Terms), ConstraintSense::LessEq, Budget,
                      "time");
    }
  }

  PM.Knobs = Knobs;
  return PM;
}

Assignment ramloc::solvePlacement(const ModelParams &MP,
                                  const ModelKnobs &Knobs,
                                  const SolverConfig &Cfg,
                                  MipSolution *Out) {
  PlacementModel PM = buildPlacementModel(MP, Knobs);
  MipSolution Sol = solveMip(PM.P, Cfg);
  if (Out)
    *Out = Sol;
  return PM.decode(Sol);
}

bool PlacementSolver::seedIncumbent(const ModelParams &MP,
                                    const Assignment &InRam) {
  std::vector<double> Seed = PM.encode(MP, InRam);
  if (Seed.empty())
    return false;
  Warm.Incumbent = std::move(Seed);
  return true;
}

uint64_t
PlacementSolver::chainKey(const SolverConfig &Cfg,
                          const std::vector<ModelKnobs> &Points) const {
  uint64_t H = mixBytes(PM.contentKey(), Warm.Incumbent.size());
  for (double V : Warm.Incumbent)
    H = mixBytes(H, V);
  H = mixBytes(H, Points.size());
  for (const ModelKnobs &K : Points) {
    H = mixBytes(H, K.RspareBytes);
    H = mixBytes(H, K.Xlimit);
  }
  return fnv1a64(H, solverConfigToken(Cfg));
}

const PlacementSolver::Optimum *
PlacementSolver::dominatingOptimum(const ModelKnobs &Knobs) const {
  const Optimum *Best = nullptr;
  for (const Optimum &O : Optima) {
    if (O.RspareBytes < Knobs.RspareBytes || O.Xlimit < Knobs.Xlimit ||
        !PM.P.isFeasible(O.Values, /*Tol=*/0.0))
      continue;
    // Every candidate is optimal here; pick by the search's canonical
    // incumbent order so the answer does not depend on visiting order.
    if (!Best || O.Objective < Best->Objective ||
        (O.Objective == Best->Objective && O.Values < Best->Values))
      Best = &O;
  }
  return Best;
}

Assignment PlacementSolver::solve(const ModelKnobs &Knobs,
                                  const SolverConfig &Cfg,
                                  MipSolution *Out) {
  TraceSpan Span("solve", "solver");
  PM.patchKnobs(Knobs);
  MipSolution Sol;
  const Optimum *Donor = Cfg.WarmNodes ? dominatingOptimum(Knobs) : nullptr;
  if (Donor) {
    Sol.Status = LpStatus::Optimal;
    Sol.Objective = Donor->Objective;
    Sol.Values = Donor->Values;
    Sol.Proven = true;
    Sol.Outcome = SolveStatus::Optimal;
    Sol.Stats.WarmStarted = true;
    Sol.Stats.Dominated = true;
    // The chain goes on as if this point had been searched: its optimum
    // seeds the next solve.
    Warm.Incumbent = Sol.Values;
    globalMetrics().counter("mip.dominated").add();
  } else {
    // With warm nodes disabled the caller asked for the cold reference
    // path; keeping the cross-solve state out makes every call
    // independent.
    Sol = solveMip(PM.P, Cfg, Cfg.WarmNodes ? &Warm : nullptr);
    if (Cfg.WarmNodes && Sol.Outcome == SolveStatus::Optimal)
      Optima.push_back({Knobs.RspareBytes, Knobs.Xlimit, Sol.Objective,
                        Sol.Values});
  }
  if (Span.active()) {
    Span.arg("warm", Sol.warmStarted() ? "1" : "0");
    Span.arg("seeded", Sol.seededIncumbent() ? "1" : "0");
    Span.arg("dominated", Sol.dominated() ? "1" : "0");
    Span.arg("nodes", std::to_string(Sol.NodesExplored));
  }
  if (Out)
    *Out = Sol;
  return PM.decode(Sol);
}
