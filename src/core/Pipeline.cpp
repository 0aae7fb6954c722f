//===- core/Pipeline.cpp - end-to-end optimization -----------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"

#include "mir/Verifier.h"
#include "sim/ProfileCache.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Statistics.h"
#include "support/Trace.h"

#include <cassert>

using namespace ramloc;

double PipelineResult::energyChangePct() const {
  return percentChange(MeasuredBase.Energy.MilliJoules,
                       MeasuredOpt.Energy.MilliJoules);
}

double PipelineResult::timeChangePct() const {
  return percentChange(MeasuredBase.Energy.Seconds,
                       MeasuredOpt.Energy.Seconds);
}

double PipelineResult::powerChangePct() const {
  return percentChange(MeasuredBase.Energy.AvgMilliWatts,
                       MeasuredOpt.Energy.AvgMilliWatts);
}

LinkedImage ramloc::linkImage(const Module &M, const LinkOptions &Link,
                              bool Keyed) {
  LinkedImage Out;
  LinkResult LR = linkModule(M, Link);
  if (!LR.ok()) {
    Out.Error = "link failed: " + LR.Errors.front();
    return Out;
  }
  Out.Img = std::make_shared<const Image>(std::move(LR.Img));
  if (Keyed)
    Out.Key = executionKey(*Out.Img);
  return Out;
}

namespace {

/// Counts one full simulation in sim.full_sims and its retired
/// instructions in sim.steps, so that the fullsim span time over the
/// latter is the cost of one step.
void countFullSim(const RunStats &Stats) {
  globalMetrics().counter("sim.full_sims").add();
  globalMetrics().counter("sim.steps").add(Stats.Instructions);
}

/// Counts one run priced from a profile instead of simulated: one
/// shared through the cache, or one derived from a profiled baseline's.
void countRecost(bool Derived) {
  globalMetrics().counter("sim.recosts").add();
  if (Derived)
    globalMetrics().counter("sim.derived").add();
}

/// Runs \p Img (whose execution key is \p Key) as measureModule
/// describes: simulated without a cache, else looked up by its key.
Measurement measureImage(std::shared_ptr<const Image> Img,
                         const std::string &Key, const PowerModel &Power,
                         const SimOptions &Sim, ProfileCache *Profiles,
                         ProfiledImage *Ran = nullptr) {
  Measurement Out;
  if (!Profiles) {
    TraceSpan Span("fullsim", "sim");
    Out.Stats = runImage(*Img, Sim);
    countFullSim(Out.Stats);
    Out.Energy = Power.integrate(Out.Stats);
    return Out;
  }

  std::shared_ptr<const ExecutionProfile> Used;
  std::shared_ptr<const ExecutionProfile> Shared;
  if (ProfileCache::Claim Owned = Profiles->claim(Key, Shared)) {
    // First run of this execution: simulate once, recording the
    // device-independent profile every later device recosts from. The
    // claim publishes nullptr if the run throws, so waiters never block
    // forever.
    TraceSpan Span("fullsim", "sim");
    Span.arg("profiled", "1");
    auto Fresh = std::make_shared<ExecutionProfile>();
    Out.Stats = runImageProfiled(*Img, Sim, *Fresh);
    countFullSim(Out.Stats);
    if (Fresh->Valid)
      Used = std::move(Fresh);
    Owned.publish(Used);
  } else {
    bool Recosted = false;
    if (Shared) {
      TraceSpan Span("recost", "sim");
      Recosted = recostProfile(*Img, *Shared, Sim, Out.Stats);
    }
    if (Recosted) {
      countRecost(/*Derived=*/false);
      Used = std::move(Shared);
    } else {
      // No usable profile (the owner's run faulted or ran out of steps,
      // or a stored profile is mis-shaped): simulate this run.
      TraceSpan Span("fullsim", "sim");
      Out.Stats = runImage(*Img, Sim);
      countFullSim(Out.Stats);
    }
  }
  if (Ran)
    *Ran = {Used ? std::move(Img) : nullptr, std::move(Used)};
  Out.Energy = Power.integrate(Out.Stats);
  return Out;
}

/// Derives the profile of B's linked image, a placement of \p Baseline,
/// into B.Derived, or records why it is not exact in B.Fallback.
void derivePlacement(PlacementBuild &B, const ProfiledImage &Baseline) {
  auto Derived = std::make_shared<ExecutionProfile>();
  if (deriveOptimizedProfile(*Baseline.Img, *Baseline.Profile,
                             *B.Linked.Img, *Derived, &B.Fallback))
    B.Derived = std::move(Derived);
}

/// Prices a linked placement: its derived profile recosted when it fits
/// the budget, else measureImage on the full image (see measurePlacement).
Measurement pricePlacement(
    const PlacementBuild &B, const PowerModel &Power, const SimOptions &Sim,
    ProfileCache *Profiles,
    const std::function<std::shared_ptr<const Image>()> &FullImage) {
  if (!B.Linked.ok()) {
    Measurement Out;
    Out.Stats.Error = B.Linked.Error;
    return Out;
  }
  if (Profiles && (B.Derived || !B.Fallback.empty())) {
    // A placement of a profiled baseline: price its derived profile,
    // without simulating or even fingerprinting the image.
    TraceSpan Span("recost", "sim");
    std::string Why = B.Fallback;
    if (B.Derived) {
      RunStats RS;
      bool Priced = recostProfile(*B.Linked.Img, *B.Derived, Sim, RS);
      assert(Priced && "a derived profile is shaped for its image");
      (void)Priced;
      if (!RS.HitCycleLimit) {
        Span.arg("derived", "1");
        countRecost(/*Derived=*/true);
        Measurement Out;
        Out.Stats = std::move(RS);
        Out.Energy = Power.integrate(Out.Stats);
        return Out;
      }
      Why = "over-budget";
    }
    Span.arg("fallback", Why);
    globalMetrics().counter("sim.derive_fallback." + Why).add();
  }
  std::shared_ptr<const Image> Img =
      FullImage ? FullImage() : B.Linked.Img;
  return measureImage(Img, Profiles ? executionKey(*Img) : std::string(),
                      Power, Sim, Profiles);
}

} // namespace

Measurement ramloc::measureModule(const Module &M, const PowerModel &Power,
                                  const LinkOptions &Link,
                                  const SimOptions &Sim,
                                  ProfileCache *Profiles) {
  LinkedImage L = linkImage(M, Link, /*Keyed=*/Profiles != nullptr);
  if (!L.ok()) {
    Measurement Out;
    Out.Stats.Error = L.Error;
    return Out;
  }
  return measureImage(std::move(L.Img), L.Key, Power, Sim, Profiles);
}

ExtractedModule ramloc::extractModule(const Module &M,
                                      const PipelineOptions &Opts,
                                      bool NeedBaseline) {
  TraceSpan Span("extract", "pipeline");
  std::vector<std::string> Diags = verifyModule(M);
  if (!Diags.empty()) {
    ExtractedModule EM;
    EM.Error = "verifier: " + Diags.front();
    return EM;
  }
  LinkedImage Base;
  if (NeedBaseline || Opts.UseProfiledFrequencies)
    Base = linkImage(M, Opts.Link, /*Keyed=*/Opts.Profiles != nullptr);
  return extractModule(M, Base, Opts, NeedBaseline);
}

ExtractedModule ramloc::extractModule(const Module &M,
                                      const LinkedImage &Base,
                                      const PipelineOptions &Opts,
                                      bool NeedBaseline) {
  ExtractedModule EM;
  // Measure the baseline first; it also provides the profile when
  // requested.
  ModuleFrequency Freq;
  if (NeedBaseline || Opts.UseProfiledFrequencies) {
    if (Base.ok())
      EM.MeasuredBase = measureImage(Base.Img, Base.Key, Opts.Power,
                                     Opts.Sim, Opts.Profiles, &EM.Base);
    else
      EM.MeasuredBase.Stats.Error = Base.Error;
    if (!EM.MeasuredBase.ok()) {
      EM.Error = "baseline run failed: " + EM.MeasuredBase.Stats.Error;
      return EM;
    }
  }
  Freq = Opts.UseProfiledFrequencies
             ? moduleFrequencyFromProfile(M,
                                          EM.MeasuredBase.Stats.profileMap(M))
             : estimateModuleFrequency(M);

  EM.MP = extractParams(M, Freq, Opts.Power, Opts.Extract);
  EM.PredictedBase =
      evaluateAssignment(EM.MP, Assignment(EM.MP.numBlocks(), false));
  return EM;
}

PlacementBuild ramloc::buildPlacement(const Module &M, const ModelParams &MP,
                                      const Assignment &InRam,
                                      const LinkOptions &Link,
                                      const ProfiledImage *Baseline) {
  PlacementBuild B;
  B.Optimized = applyPlacement(M, MP, InRam, &B.Rewrites);
  std::vector<std::string> Diags = verifyModule(B.Optimized);
  if (!Diags.empty()) {
    B.Error = "post-transform verifier: " + Diags.front();
    return B;
  }
  B.Linked = linkImage(B.Optimized, Link, /*Keyed=*/false);
  if (B.Linked.ok() && Baseline && *Baseline)
    derivePlacement(B, *Baseline);
  return B;
}

PipelineResult ramloc::measurePlacement(
    const ExtractedModule &EM, const PlacementBuild &B,
    const Assignment &InRam, const MipSolution &Solver,
    const PipelineOptions &Opts,
    const std::function<std::shared_ptr<const Image>()> &FullImage) {
  PipelineResult R;
  R.MeasuredBase = EM.MeasuredBase;
  R.PredictedBase = EM.PredictedBase;
  R.Solver = Solver;
  R.InRam = InRam;
  R.PredictedOpt = evaluateAssignment(EM.MP, InRam);

  for (unsigned Blk = 0, E = EM.MP.numBlocks(); Blk != E; ++Blk)
    if (InRam[Blk])
      R.MovedBlocks.push_back(EM.MP.Blocks[Blk].Name);

  if (!B.Error.empty()) {
    R.Error = B.Error;
    return R;
  }

  R.MeasuredOpt =
      pricePlacement(B, Opts.Power, Opts.Sim, Opts.Profiles, FullImage);
  if (!R.MeasuredOpt.ok()) {
    R.Error = "optimized run failed: " + R.MeasuredOpt.Stats.Error;
    return R;
  }

  if (R.MeasuredOpt.Stats.ExitCode != R.MeasuredBase.Stats.ExitCode)
    R.Error = formatString(
        "transformation changed the program result: 0x%08x vs 0x%08x",
        R.MeasuredBase.Stats.ExitCode, R.MeasuredOpt.Stats.ExitCode);
  return R;
}

PipelineResult ramloc::applyAndMeasure(const Module &M,
                                       const ExtractedModule &EM,
                                       const Assignment &InRam,
                                       const MipSolution &Solver,
                                       const PipelineOptions &Opts) {
  TraceSpan Span("apply", "pipeline");
  PlacementBuild B = buildPlacement(M, EM.MP, InRam, Opts.Link, &EM.Base);
  PipelineResult R = measurePlacement(EM, B, InRam, Solver, Opts);
  R.Optimized = std::move(B.Optimized);
  R.Rewrites = B.Rewrites;
  return R;
}

PipelineResult ramloc::optimizeModule(const Module &M,
                                      const PipelineOptions &Opts) {
  ExtractedModule EM = extractModule(M, Opts, /*NeedBaseline=*/true);
  if (!EM.ok()) {
    PipelineResult R;
    R.MeasuredBase = EM.MeasuredBase;
    R.Error = EM.Error;
    return R;
  }

  PlacementSolver Solver(EM.MP, Opts.Knobs);
  MipSolution Sol;
  Assignment InRam = Solver.solve(Opts.Knobs, Opts.Solver, &Sol);
  return applyAndMeasure(M, EM, InRam, Sol, Opts);
}
