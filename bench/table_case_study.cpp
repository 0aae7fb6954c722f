//===- bench/table_case_study.cpp - Section 7 numbers ------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// Regenerates the Section 7 case study: fdct as the active region of a
// periodic-sensing node. The paper measures E0 = 16.9 mJ, TA = 1.18 s,
// ke = 0.825, kt = 1.33, PS = 3.5 mW, giving Es = 4.32 mJ per period, up
// to 25% total energy reduction and up to 32% longer battery life.
//
// We scale fdct so TA lands near the paper's 1.18 s (the simulated SoC
// runs the same 24 MHz clock) and print measured-vs-paper side by side.
// The single (long) pipeline run is a campaign job; with --cache-dir=DIR
// repeated invocations replay it from the persistent cache instead of
// re-simulating ~28M cycles.
//
//===----------------------------------------------------------------------===//

#include "BenchCache.h"
#include "campaign/Campaign.h"
#include "casestudy/PeriodicApp.h"
#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>

using namespace ramloc;

int main(int Argc, char **Argv) {
  std::string CacheDir = parseBenchFlags(Argc, Argv);
  std::printf("== Section 7 case study: periodic sensing with fdct ==\n\n");

  // ~28M cycles at 24 MHz is the paper's 1.18 s active region.
  JobSpec Spec;
  Spec.Benchmark = "fdct";
  Spec.Level = OptLevel::O2;
  Spec.Repeat = 4000;
  Spec.RspareBytes = 1024;
  Spec.Xlimit = 1.5;

  BenchCache Cache(CacheDir);
  CampaignOptions Opts;
  Cache.attach(Opts);
  CampaignResult CR = runCampaign(std::vector<JobSpec>{Spec}, Opts);
  Cache.save();
  const JobResult &R = CR.Results[0];
  if (!R.ok()) {
    std::printf("pipeline failed: %s\n", R.Error.c_str());
    return 1;
  }

  ActiveProfile Base{R.BaseEnergyMilliJoules, R.BaseSeconds};
  ActiveProfile Opt{R.OptEnergyMilliJoules, R.OptSeconds};
  OptimizationFactors K = factorsFrom(Base, Opt);
  const double PS = 3.5;
  double Es = energySaved(Base, K, PS);

  Table T({"quantity", "measured", "paper"});
  T.addRow({"E0 (mJ)", formatDouble(Base.EnergyMilliJoules, 2), "16.9"});
  T.addRow({"TA (s)", formatDouble(Base.Seconds, 2), "1.18"});
  T.addRow({"ke", formatDouble(K.Ke, 3), "0.825"});
  T.addRow({"kt", formatDouble(K.Kt, 3), "1.33"});
  T.addRow({"PS (mW)", formatDouble(PS, 1), "3.5"});
  T.addRow({"Es per period (mJ)", formatDouble(Es, 2), "4.32"});

  // Peak savings over the sweep of periods (the paper's "up to" numbers).
  double BestSaving = 0.0, BestLife = 0.0;
  for (double Mult = 1.0; Mult <= 16.0; Mult += 0.5) {
    double T2 = std::max(Opt.Seconds * Mult, Base.Seconds);
    BestSaving = std::max(
        BestSaving, (1.0 - energyRatio(Base, Opt, PS, T2)) * 100.0);
    BestLife = std::max(BestLife,
                        batteryLifeExtension(Base, Opt, PS, T2) * 100.0);
  }
  T.addRow({"max energy saving (%)", formatDouble(BestSaving, 1), "25"});
  T.addRow({"max battery life (+%)", formatDouble(BestLife, 1), "32"});
  std::printf("%s\n", T.render().c_str());

  bool Shape = K.Ke < 1.0 && K.Kt > 1.0 && Es > 0.0 && BestSaving > 10.0 &&
               BestLife > 10.0;
  std::printf("shape holds (ke<1, kt>1, Es>0, double-digit savings): %s\n",
              Shape ? "YES" : "NO");
  return Shape ? 0 : 1;
}
