//===- bench/fig9_period_sweep.cpp - Figure 9 --------------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// Regenerates Figure 9: post-optimization energy (as % of baseline) for
// periodic applications built on fdct, int_matmult and 2dfir, as the
// period T grows from T = TA (no sleep) to T = 16*TA. The paper's shape:
// fdct and int_matmult start around 75-80% and climb toward 100%; 2dfir
// saves little at small T but *still* saves (its optimization trades time
// for power at nearly constant energy).
//
// The three pipeline runs are one campaign grid executed by the campaign
// engine; pass --cache-dir=DIR to serve repeated invocations from the
// persistent result cache instead of re-simulating.
//
//===----------------------------------------------------------------------===//

#include "BenchCache.h"
#include "campaign/Campaign.h"
#include "casestudy/PeriodicApp.h"
#include "support/Format.h"
#include "support/Table.h"

#include <cstdio>

using namespace ramloc;

int main(int Argc, char **Argv) {
  std::string CacheDir = parseBenchFlags(Argc, Argv);
  std::printf("== Figure 9: energy after optimization vs period T "
              "(PS = 3.5 mW, Rspare = 1024 B) ==\n\n");

  const double Multiples[] = {1, 2, 3, 4, 6, 8, 12, 16};

  GridSpec Grid;
  Grid.Benchmarks = {"fdct", "int_matmult", "2dfir"};
  Grid.Levels = {OptLevel::O2};
  Grid.RsparePoints = {1024};
  Grid.XlimitPoints = {1.5};

  BenchCache Cache(CacheDir);
  CampaignOptions Opts;
  Opts.Jobs = 0; // hardware concurrency
  Cache.attach(Opts);
  CampaignResult CR = runCampaign(Grid, Opts);
  Cache.save();

  Table T({"T / TA", "fdct", "int_matmult", "2dfir"});
  std::vector<std::vector<double>> Series(3);

  for (unsigned N = 0; N != 3; ++N) {
    const JobResult &R = CR.Results[N];
    if (!R.ok()) {
      std::printf("%s: %s\n", R.Spec.Benchmark.c_str(), R.Error.c_str());
      return 1;
    }
    ActiveProfile Base{R.BaseEnergyMilliJoules, R.BaseSeconds};
    ActiveProfile Opt{R.OptEnergyMilliJoules, R.OptSeconds};
    OptimizationFactors K = factorsFrom(Base, Opt);
    std::printf("%-12s ke = %.3f, kt = %.3f\n", R.Spec.Benchmark.c_str(),
                K.Ke, K.Kt);
    for (double Mult : Multiples) {
      // T is a multiple of the *optimized* active time so the longest
      // active region still fits in the period.
      double T = Opt.Seconds * Mult;
      if (T < Base.Seconds)
        T = Base.Seconds;
      Series[N].push_back(energyRatio(Base, Opt, 3.5, T) * 100.0);
    }
  }

  std::printf("\n");
  for (unsigned I = 0; I != 8; ++I)
    T.addRow({formatString("%gx", Multiples[I]),
              formatDouble(Series[0][I], 1) + "%",
              formatDouble(Series[1][I], 1) + "%",
              formatDouble(Series[2][I], 1) + "%"});
  std::printf("%s\n", T.render().c_str());

  // Shape checks: every curve stays below 100% (saving persists even as
  // sleep dominates) and rises monotonically toward 100% with T. The
  // paper's relative ordering differs in one respect: its 2dfir gained
  // almost no active-region energy, while ours does (see EXPERIMENTS.md).
  bool Shape = true;
  for (unsigned N = 0; N != 3; ++N) {
    for (unsigned I = 0; I != 8; ++I) {
      if (Series[N][I] >= 100.0)
        Shape = false;
      if (I && Series[N][I] < Series[N][I - 1] - 1e-9)
        Shape = false;
    }
  }

  std::printf("paper's best: ~75%% at T = TA (25%% reduction). ours: "
              "%.1f%%\n",
              std::min(Series[0][0], Series[1][0]));
  std::printf("shape holds (all < 100%%, rising toward 100%% with T): "
              "%s\n",
              Shape ? "YES" : "NO");
  return Shape ? 0 : 1;
}
