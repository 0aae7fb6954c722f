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
#include "support/Statistics.h"
#include "support/Trace.h"

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

Measurement ramloc::measureModule(const Module &M, const PowerModel &Power,
                                  const LinkOptions &Link,
                                  const SimOptions &Sim,
                                  ProfileCache *Profiles) {
  Measurement Out;
  LinkResult LR = linkModule(M, Link);
  if (!LR.ok()) {
    Out.Stats.Error = "link failed: " + LR.Errors.front();
    return Out;
  }

  if (!Profiles) {
    TraceSpan Span("fullsim", "sim");
    Out.Stats = runImage(LR.Img, Sim);
    Out.Energy = Power.integrate(Out.Stats);
    return Out;
  }

  std::string Key = executionKey(LR.Img);
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
      Out.Stats = runImageProfiled(LR.Img, Sim, *Fresh);
    } catch (...) {
      Profiles->publish(Key, nullptr);
      throw;
    }
    Profiles->noteFullSim();
    Profiles->publish(Key, Fresh->Valid ? std::move(Fresh) : nullptr);
  } else {
    bool Recosted = false;
    if (Shared) {
      TraceSpan Span("recost", "sim");
      Recosted = recostProfile(LR.Img, *Shared, Sim, Out.Stats);
    }
    if (Recosted) {
      Profiles->noteRecost();
    } else {
      // No usable profile (the owner's run faulted or ran out of steps,
      // or a stored profile is mis-shaped): simulate this run.
      TraceSpan Span("fullsim", "sim");
      Out.Stats = runImage(LR.Img, Sim);
      Profiles->noteFullSim();
    }
  }
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
    EM.MeasuredBase =
        measureModule(M, Opts.Power, Opts.Link, Opts.Sim, Opts.Profiles);
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
                                Opts.Sim, Opts.Profiles);
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
