//===- bench/fig7_power_profile.cpp - Figure 7 --------------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// Regenerates Figure 7: the power profile of a periodic application
// before (7a) and after (7b) the optimization. The active region is the
// real fdct binary sampled by the simulator's power-profile
// instrumentation; the sleep tail is the 3.5 mW quiescent state. The
// paper's shape: the optimized profile is LOWER and LONGER in the active
// region, eating into the sleep window — and the total area (energy)
// shrinks.
//
// The headline energy/time numbers come from a campaign job (cacheable
// across invocations via --cache-dir=DIR); the sampled power traces need
// the optimized module itself, so that part drives the pipeline directly.
// Both run the same deterministic pipeline, so the numbers agree exactly.
//
//===----------------------------------------------------------------------===//

#include "BenchCache.h"
#include "beebs/Beebs.h"
#include "campaign/Campaign.h"
#include "casestudy/PeriodicApp.h"
#include "core/Pipeline.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace ramloc;

namespace {

/// Draws one profile as rows of '#' (one column per sample).
void drawProfile(const char *Title, const std::vector<double> &MilliWatts,
                 double MaxMw) {
  std::printf("%s\n", Title);
  const int Rows = 8;
  for (int Row = Rows; Row > 0; --Row) {
    double Threshold = MaxMw * Row / Rows;
    std::string Line = formatString("%5.1f mW |", Threshold);
    for (double P : MilliWatts)
      Line += P >= Threshold - MaxMw / (2.0 * Rows) ? '#' : ' ';
    std::printf("%s\n", Line.c_str());
  }
  std::printf("         +%s> time\n\n",
              std::string(MilliWatts.size(), '-').c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  std::string CacheDir = parseBenchFlags(Argc, Argv);
  std::printf("== Figure 7: power profile of a periodic application, "
              "before and after ==\n\n");

  JobSpec Spec;
  Spec.Benchmark = "fdct";
  Spec.Level = OptLevel::O2;
  Spec.Repeat = 40;
  Spec.RspareBytes = 1024;
  Spec.Xlimit = 1.5;

  BenchCache Cache(CacheDir);
  CampaignOptions CampOpts;
  Cache.attach(CampOpts);
  CampaignResult CR = runCampaign(std::vector<JobSpec>{Spec}, CampOpts);
  Cache.save();
  const JobResult &Job = CR.Results[0];
  if (!Job.ok()) {
    std::printf("pipeline: %s\n", Job.Error.c_str());
    return 1;
  }

  // The sampled traces need the optimized module, which a cached
  // JobResult cannot carry: re-derive it with the same options.
  Module M = buildBeebs(Spec.Benchmark, Spec.Level, Spec.Repeat);
  PipelineOptions Opts;
  Opts.Knobs.RspareBytes = Spec.RspareBytes;
  Opts.Knobs.Xlimit = Spec.Xlimit;
  PipelineResult R = optimizeModule(M, Opts);
  if (!R.ok()) {
    std::printf("pipeline: %s\n", R.Error.c_str());
    return 1;
  }

  // Re-run both binaries with power sampling enabled.
  PowerModel PM = PowerModel::stm32f100();
  auto sampledRun = [&PM](const Module &Mod, unsigned ActiveColumns,
                          std::vector<double> &Out, double &Seconds) {
    LinkResult LR = linkModule(Mod);
    if (!LR.ok())
      return false;
    // First run to size the interval so the active region spans the
    // requested number of columns.
    RunStats Probe = runImage(LR.Img);
    std::vector<PowerSample> Samples;
    RunStats S = runImageSampled(
        LR.Img, {}, std::max<uint64_t>(1, Probe.Cycles / ActiveColumns),
        Samples);
    if (!S.ok())
      return false;
    for (const PowerSample &Sample : Samples)
      Out.push_back(PM.averageMilliWatts(Sample));
    Seconds = PM.integrate(S).Seconds;
    return true;
  };

  // One period: active region + sleep until T. Scale: optimized active
  // region gets proportionally more columns (it runs longer).
  double BaseSec = 0, OptSec = 0;
  std::vector<double> BaseActive, OptActive;
  if (!sampledRun(M, 24, BaseActive, BaseSec) ||
      !sampledRun(R.Optimized, 24, OptActive, OptSec)) {
    std::printf("sampled run failed\n");
    return 1;
  }
  double Period = BaseSec * 1.6; // T with a visible sleep window
  const double ColSec = BaseSec / 24.0;
  auto padSleep = [&](std::vector<double> &Profile, double ActiveSec) {
    unsigned SleepCols = static_cast<unsigned>(
        std::max(0.0, (Period - ActiveSec) / ColSec));
    for (unsigned I = 0; I != SleepCols; ++I)
      Profile.push_back(PM.SleepMilliWatts);
  };
  // Rescale the optimized active region onto the same time axis.
  {
    std::vector<double> Rescaled;
    unsigned Cols = static_cast<unsigned>(OptSec / ColSec);
    for (unsigned I = 0; I != Cols; ++I) {
      double Pos = static_cast<double>(I) * OptActive.size() / Cols;
      Rescaled.push_back(OptActive[std::min<size_t>(
          static_cast<size_t>(Pos), OptActive.size() - 1)]);
    }
    OptActive = std::move(Rescaled);
  }
  padSleep(BaseActive, BaseSec);
  padSleep(OptActive, OptSec);

  double MaxMw = 0;
  for (double P : BaseActive)
    MaxMw = std::max(MaxMw, P);
  MaxMw = std::max(MaxMw, 16.0);

  drawProfile("(a) before: short, high-power active region, long sleep",
              BaseActive, MaxMw);
  drawProfile("(b) after: longer, lower-power active region, less sleep",
              OptActive, MaxMw);

  double ActiveMeanBase = 0, ActiveMeanOpt = 0;
  for (unsigned I = 0; I != 24; ++I)
    ActiveMeanBase += BaseActive[I] / 24.0;
  unsigned OptCols = static_cast<unsigned>(OptSec / ColSec);
  for (unsigned I = 0; I != OptCols; ++I)
    ActiveMeanOpt += OptActive[I] / OptCols;

  // Headline numbers from the campaign job (identical to the direct
  // pipeline run above; CampaignTest asserts that equivalence).
  ActiveProfile Base{Job.BaseEnergyMilliJoules, Job.BaseSeconds};
  ActiveProfile Opt{Job.OptEnergyMilliJoules, Job.OptSeconds};
  double E = periodEnergy(Base, PM.SleepMilliWatts, Period);
  double EPrime = periodEnergy(Opt, PM.SleepMilliWatts, Period);
  std::printf("active power: %.1f mW -> %.1f mW; active time: %.1f ms -> "
              "%.1f ms\n",
              ActiveMeanBase, ActiveMeanOpt, BaseSec * 1e3, OptSec * 1e3);
  std::printf("period energy: %.3f mJ -> %.3f mJ (%.1f%% saved)\n", E,
              EPrime, (1.0 - EPrime / E) * 100.0);

  bool Shape = ActiveMeanOpt < ActiveMeanBase && OptSec > BaseSec &&
               EPrime < E;
  std::printf("\nshape holds (lower+longer active region, smaller total "
              "area): %s\n",
              Shape ? "YES" : "NO");
  return Shape ? 0 : 1;
}
