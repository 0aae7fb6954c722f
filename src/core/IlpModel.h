//===- core/IlpModel.h - the Section 4 ILP model ----------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's energy-minimisation ILP (Eqs. 1-9), linearised:
///
///   minimise  sum_b Fb * (Cb + Tb*y_b + Lb*x_b) * M(x_b)
///   s.t.      sum_b x_b*(Sb + Kb*y_b)  <=  Rspare          (Eq. 7)
///             modelled time / base time <=  Xlimit          (Eq. 9)
///
/// with binaries x_b ("b in RAM") and continuous indicator y_b >= |x_b -
/// x_s| for every successor s (Eq. 5); the bilinear x*y and M(x)*(...)
/// products are linearised through z_b = x_b * y_b with the standard
/// McCormick rows. Cross-memory calls get the same treatment through
/// per-call-site indicator variables (an extension the paper leaves to
/// future work but which our linker enforces).
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_CORE_ILPMODEL_H
#define RAMLOC_CORE_ILPMODEL_H

#include "core/BlockParams.h"
#include "lp/BranchBound.h"
#include "lp/Problem.h"

#include <cstdint>
#include <vector>

namespace ramloc {

/// The set R: InRam[global block index].
using Assignment = std::vector<bool>;

/// Developer knobs (Section 4.1: Xlimit, Rspare) plus ablation switches.
struct ModelKnobs {
  /// Maximum allowed execution-time ratio (Eq. 9). 1.5 allows 50%.
  double Xlimit = 1.5;
  /// RAM bytes available for code (Eq. 7).
  unsigned RspareBytes = 2048;
  /// Model the instrumentation costs Kb/Tb (the paper's "clustering"
  /// improvement over Steinke et al.). Disable to get the naive model for
  /// the ablation bench.
  bool ClusteringAware = true;
  /// Use cycle counts (the paper) instead of instruction counts
  /// (Steinke-style) as the cost metric. Ablation switch.
  bool UseCycleCost = true;
  /// Model cross-memory call rewriting (ldr+blx).
  bool ModelCallEdges = true;
};

/// Closed-form model evaluation of one assignment (used for Figure 6's
/// 2^k solution space and for solver-vs-enumeration checks). Always uses
/// the full-cost model regardless of ablation knobs.
struct ModelEstimate {
  double EnergyMilliJoules = 0.0;
  double Cycles = 0.0;
  double Seconds = 0.0;
  double AvgMilliWatts = 0.0;
  /// RAM bytes consumed by relocated code incl. instrumentation.
  unsigned RamBytes = 0;
};

/// The blocks needing instrumentation under \p InRam (Eq. 5): any block
/// with a successor in the other memory.
std::vector<bool> computeInstrumented(const ModelParams &MP,
                                      const Assignment &InRam);

/// Evaluates \p InRam under the full model.
ModelEstimate evaluateAssignment(const ModelParams &MP,
                                 const Assignment &InRam);

/// The built ILP plus decode tables.
struct PlacementModel {
  LpProblem P;
  /// Per global block: variable indices, -1 when absent (fixed to flash /
  /// never instrumented).
  std::vector<int> XVar;
  std::vector<int> YVar;
  std::vector<int> ZVar;
  /// Per (block, call-site): cross-memory-call indicator c and its RAM
  /// literal-pool product w = x * c, -1 when the edge cannot cross.
  std::vector<std::vector<int>> CallVar;
  std::vector<std::vector<int>> CallPoolVar;
  /// Objective constant: energy of the all-flash baseline (mW*cycles).
  double BaseEnergyTerm = 0.0;
  /// Base cycles (denominator of Eq. 9).
  double BaseCycles = 0.0;
  /// Indices into P.Constraints of the two knob rows (-1 when the model
  /// has no movable blocks and the row was never emitted).
  int RamConstraint = -1;
  int TimeConstraint = -1;
  /// The knobs the model was built (or last patched) under.
  ModelKnobs Knobs;

  /// Retargets the knob rows to \p NewKnobs by rewriting their RHS in
  /// place — the Eq. 7 budget becomes Rspare, the Eq. 9 budget
  /// (Xlimit - 1) * BaseCycles. Only Xlimit/RspareBytes may differ from
  /// the build-time knobs: the structural switches (clustering, cost
  /// metric, call edges) shape the variable/constraint set itself.
  void patchKnobs(const ModelKnobs &NewKnobs);

  /// Decodes a MIP solution into the assignment R.
  Assignment decode(const MipSolution &Sol) const;

  /// The inverse of decode: lifts an assignment to the canonical full
  /// variable vector (x from the assignment; y/z/c/w at the values the
  /// objective and constraint pressure pin them to at integral points —
  /// the optimal completion of that x). Returns an empty vector when the
  /// assignment does not fit this model (wrong arity, or a block marked
  /// in-RAM that has no placement variable). Used to replant a persisted
  /// incumbent: feed the result to a MipWarmStart and solveMip re-checks
  /// it at zero tolerance before letting it prune anything.
  std::vector<double> encode(const ModelParams &MP,
                             const Assignment &InRam) const;

  /// FNV-1a 64 over everything a solve of this model reads: each
  /// variable's bounds, objective and integer flag; each constraint's
  /// sense, RHS and terms; BaseCycles and the two knob-row indices (what
  /// patchKnobs retargets). Names are left out: the solver never reads
  /// them. Two models with equal keys pose bit-identical ILPs — the same
  /// trust level as Image::fingerprint — which is common, because
  /// Eqs. 1-9 see a placement only in cycles and per-memory power: most
  /// BEEBS benchmarks build identical O1/O2 code, and a device that only
  /// differs in clock rate poses its sibling's model exactly.
  uint64_t contentKey() const;
};

/// Builds the ILP for \p MP under \p Knobs.
PlacementModel buildPlacementModel(const ModelParams &MP,
                                   const ModelKnobs &Knobs = {});

/// Convenience: build + solve + decode. Returns the all-flash assignment
/// if the solver fails (it cannot: all-flash is always feasible).
Assignment solvePlacement(const ModelParams &MP,
                          const ModelKnobs &Knobs = {},
                          const SolverConfig &Cfg = {},
                          MipSolution *Out = nullptr);

/// The pipeline's solve stage, built once per (benchmark, device): knob
/// points become RHS patches on one retained ILP, each solved with the
/// previous point's basis, incumbent and pseudo-costs as warm start
/// (solve once, branch cheap — the knob-axis analogue of the
/// execute/recost split). The first solve is cold; every later solve
/// re-optimizes, which MipSolution::WarmStarted reports and the campaign
/// engine tallies as Summary.ColdSolves/WarmSolves. Warm and cold paths
/// are both exact, so whenever the optimal placement is unique — two
/// distinct placements with bit-equal modelled energy being the one case
/// any pair of exact solvers may legitimately disagree on — results do
/// not depend on the order knob points are visited in. The whole chain
/// is a pure function of the model, the seed, the solver config and the
/// knob points visited, which is exactly what chainKey() hashes, so the
/// campaign engine solves each chain once for every group that visits
/// the same points of the same ILP.
///
/// A warm chain also settles dominated points without search. Both knobs
/// only bound the feasible set from above (Eq. 7 by Rspare, Eq. 9 by
/// Xlimit), so a point K's feasible set lies inside that of any point P
/// at least as loose on both. When P's proven optimum is feasible at K,
/// it is optimal at K too: solve() returns it with no nodes explored,
/// labelled warm-started and Stats.Dominated. Only proven optima serve as
/// donors, and the cold reference path (WarmNodes off) never takes the
/// shortcut. Visiting a chain loosest-first makes the most of it.
/// Not thread-safe; the campaign engine runs one group per worker.
class PlacementSolver {
public:
  PlacementSolver(const ModelParams &MP, const ModelKnobs &Knobs)
      : PM(buildPlacementModel(MP, Knobs)) {}

  /// Solves the placement for \p Knobs (structural knob fields must match
  /// construction). With Cfg.WarmNodes disabled every call is a fully
  /// cold reference solve.
  Assignment solve(const ModelKnobs &Knobs, const SolverConfig &Cfg = {},
                   MipSolution *Out = nullptr);

  /// Plants \p InRam as the next solve's starting incumbent — the
  /// cross-process analogue of the knob-chain's previous-optimum seed
  /// (typically the persistent cache's best-known assignment for this
  /// solve group). The seed is only a pruning hint: solveMip re-validates
  /// it at zero tolerance under the solve's actual knobs, so a stale or
  /// infeasible seed costs nothing and cannot change the answer. Returns
  /// false (and plants nothing) when the assignment does not fit the
  /// model. Only honoured by warm-noded solves (a cold reference solve
  /// carries no cross-solve state by design).
  bool seedIncumbent(const ModelParams &MP, const Assignment &InRam);

  /// The key of the solve chain this solver is about to run:
  /// model().contentKey(), the planted seed incumbent (if any),
  /// solverConfigToken(\p Cfg) and each of \p Points' Rspare and Xlimit
  /// in visiting order. Call it before the first solve. Two solvers with
  /// equal keys return bit-identical MipSolutions along the whole chain,
  /// so the campaign engine solves each distinct chain once and copies
  /// it for every solve group with the same key.
  uint64_t chainKey(const SolverConfig &Cfg,
                    const std::vector<ModelKnobs> &Points) const;

  const PlacementModel &model() const { return PM; }

private:
  /// A proven optimum of this chain and the knobs it was proven at.
  struct Optimum {
    unsigned RspareBytes;
    double Xlimit;
    double Objective;
    std::vector<double> Values;
  };
  /// The canonically best recorded optimum at least as loose as \p Knobs
  /// and feasible under the currently patched model, or null.
  const Optimum *dominatingOptimum(const ModelKnobs &Knobs) const;

  PlacementModel PM;
  MipWarmStart Warm;
  std::vector<Optimum> Optima;
};

} // namespace ramloc

#endif // RAMLOC_CORE_ILPMODEL_H
