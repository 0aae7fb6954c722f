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

namespace {

/// Adds a full simulation's retired instructions to sim.steps, so that
/// the fullsim span time over this count is the cost of one step.
void countSteps(const RunStats &Stats) {
  globalMetrics().counter("sim.steps").add(Stats.Instructions);
}

} // namespace

Measurement ramloc::measureModule(const Module &M, const PowerModel &Power,
                                  const LinkOptions &Link,
                                  const SimOptions &Sim,
                                  ProfileCache *Profiles,
                                  const ProfiledImage *Baseline,
                                  ProfiledImage *Ran) {
  Measurement Out;
  LinkResult LR = linkModule(M, Link);
  if (!LR.ok()) {
    Out.Stats.Error = "link failed: " + LR.Errors.front();
    return Out;
  }

  if (!Profiles) {
    TraceSpan Span("fullsim", "sim");
    Out.Stats = runImage(LR.Img, Sim);
    countSteps(Out.Stats);
    Out.Energy = Power.integrate(Out.Stats);
    return Out;
  }

  if (Baseline && *Baseline) {
    // A placement of a profiled baseline: derive its profile and price
    // it, without simulating or even fingerprinting the image.
    TraceSpan Span("recost", "sim");
    ExecutionProfile Derived;
    std::string Why;
    if (deriveOptimizedProfile(*Baseline->Img, *Baseline->Profile, LR.Img,
                               Derived, &Why)) {
      RunStats RS;
      bool Priced = recostProfile(LR.Img, Derived, Sim, RS);
      assert(Priced && "a derived profile is shaped for its image");
      (void)Priced;
      if (!RS.HitCycleLimit) {
        Span.arg("derived", "1");
        Profiles->noteRecost(/*Derived=*/true);
        Out.Stats = std::move(RS);
        Out.Energy = Power.integrate(Out.Stats);
        return Out;
      }
      Why = "over-budget";
    }
    Span.arg("fallback", Why);
    globalMetrics().counter("sim.derive_fallback." + Why).add();
  }

  auto Img = std::make_shared<const Image>(std::move(LR.Img));
  std::shared_ptr<const ExecutionProfile> Used;
  std::string Key = executionKey(*Img);
  bool Owner = false;
  std::shared_ptr<const ExecutionProfile> Shared =
      Profiles->acquire(Key, Owner);
  if (Owner) {
    // First run of this execution: simulate once, recording the
    // device-independent profile every later device recosts from. The
    // owner must publish (null on a faulted run) or waiters block
    // forever, so publish on every path out.
    TraceSpan Span("fullsim", "sim");
    Span.arg("profiled", "1");
    auto Fresh = std::make_shared<ExecutionProfile>();
    try {
      Out.Stats = runImageProfiled(*Img, Sim, *Fresh);
    } catch (...) {
      Profiles->publish(Key, nullptr);
      throw;
    }
    Profiles->noteFullSim();
    countSteps(Out.Stats);
    if (Fresh->Valid)
      Used = std::move(Fresh);
    Profiles->publish(Key, Used);
  } else {
    bool Recosted = false;
    if (Shared) {
      TraceSpan Span("recost", "sim");
      Recosted = recostProfile(*Img, *Shared, Sim, Out.Stats);
    }
    if (Recosted) {
      Profiles->noteRecost();
      Used = std::move(Shared);
    } else {
      // No usable profile (the owner's run faulted or ran out of steps,
      // or a stored profile is mis-shaped): simulate this run.
      TraceSpan Span("fullsim", "sim");
      Out.Stats = runImage(*Img, Sim);
      Profiles->noteFullSim();
      countSteps(Out.Stats);
    }
  }
  if (Ran)
    *Ran = {Used ? std::move(Img) : nullptr, std::move(Used)};
  Out.Energy = Power.integrate(Out.Stats);
  return Out;
}

ExtractedModule ramloc::extractModule(const Module &M,
                                      const PipelineOptions &Opts,
                                      bool NeedBaseline) {
  TraceSpan Span("extract", "pipeline");
  ExtractedModule EM;

  std::vector<std::string> Diags = verifyModule(M);
  if (!Diags.empty()) {
    EM.Error = "verifier: " + Diags.front();
    return EM;
  }

  // Measure the baseline first; it also provides the profile when
  // requested.
  ModuleFrequency Freq;
  if (NeedBaseline || Opts.UseProfiledFrequencies) {
    EM.MeasuredBase = measureModule(M, Opts.Power, Opts.Link, Opts.Sim,
                                    Opts.Profiles, nullptr, &EM.Base);
    if (!EM.MeasuredBase.ok()) {
      EM.Error = "baseline run failed: " + EM.MeasuredBase.Stats.Error;
      return EM;
    }
  }
  Freq = Opts.UseProfiledFrequencies
             ? moduleFrequencyFromProfile(
                   M, EM.MeasuredBase.Stats.profileMap(M), Opts.Freq)
             : estimateModuleFrequency(M, Opts.Freq);

  EM.MP = extractParams(M, Freq, Opts.Power, Opts.Extract);
  EM.PredictedBase =
      evaluateAssignment(EM.MP, Assignment(EM.MP.numBlocks(), false));
  return EM;
}

PipelineResult ramloc::applyAndMeasure(const Module &M,
                                       const ExtractedModule &EM,
                                       const Assignment &InRam,
                                       const MipSolution &Solver,
                                       const PipelineOptions &Opts) {
  TraceSpan Span("apply", "pipeline");
  PipelineResult R;
  R.MeasuredBase = EM.MeasuredBase;
  R.PredictedBase = EM.PredictedBase;
  R.Solver = Solver;
  R.InRam = InRam;
  R.PredictedOpt = evaluateAssignment(EM.MP, InRam);

  for (unsigned B = 0, E = EM.MP.numBlocks(); B != E; ++B)
    if (InRam[B])
      R.MovedBlocks.push_back(EM.MP.Blocks[B].Name);

  R.Optimized = applyPlacement(M, EM.MP, InRam, &R.Rewrites);

  std::vector<std::string> Diags = verifyModule(R.Optimized);
  if (!Diags.empty()) {
    R.Error = "post-transform verifier: " + Diags.front();
    return R;
  }

  R.MeasuredOpt = measureModule(R.Optimized, Opts.Power, Opts.Link,
                                Opts.Sim, Opts.Profiles, &EM.Base);
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
