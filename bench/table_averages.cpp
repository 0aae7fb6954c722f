//===- bench/table_averages.cpp - Section 6 in-text averages ----------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// Regenerates the Section 6 headline sentence: "Across all benchmarks and
// optimization levels, the average reduction in energy and power is 7.7%
// and 21.9% respectively. The execution time is increased by an average
// of 19.5%." Runs the whole suite at O0/O1/O2/O3/Os and averages.
//
// The 50 pipeline runs are one campaign grid executed in parallel by the
// campaign engine; pass --cache-dir=DIR to make repeated invocations
// incremental (the second run replays from the persistent cache).
//
//===----------------------------------------------------------------------===//

#include "BenchCache.h"
#include "beebs/Beebs.h"
#include "campaign/Campaign.h"
#include "support/Format.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <cstdio>

using namespace ramloc;

int main(int Argc, char **Argv) {
  std::string CacheDir = parseBenchFlags(Argc, Argv);
  std::printf("== Section 6 averages across 10 benchmarks x 5 levels "
              "(Rspare = 512 B, Xlimit = 1.5) ==\n\n");

  GridSpec Grid;
  Grid.Benchmarks = beebsNames();
  Grid.Levels = {OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3,
                 OptLevel::Os};
  Grid.RsparePoints = {512};
  Grid.XlimitPoints = {1.5};

  BenchCache Cache(CacheDir);
  CampaignOptions Opts;
  Opts.Jobs = 0; // hardware concurrency
  Cache.attach(Opts);
  CampaignResult CR = runCampaign(Grid, Opts);
  Cache.save();

  for (const JobResult &R : CR.Results)
    if (!R.ok()) {
      std::printf("%s %s: %s\n", R.Spec.Benchmark.c_str(),
                  optLevelName(R.Spec.Level), R.Error.c_str());
      return 1;
    }

  // Expansion order is benchmark-major with level as the next axis:
  // Results[b * numLevels + l].
  const size_t NumLevels = Grid.Levels.size();
  std::vector<double> EnergyPct, PowerPct, TimePct;
  Table T({"level", "avg energy", "avg power", "avg time"});

  for (size_t L = 0; L != NumLevels; ++L) {
    std::vector<double> LevelE, LevelP, LevelT;
    for (size_t B = 0; B != Grid.Benchmarks.size(); ++B) {
      const JobResult &R = CR.Results[B * NumLevels + L];
      LevelE.push_back(R.energyPct());
      LevelP.push_back(R.powerPct());
      LevelT.push_back(R.timePct());
    }
    T.addRow({optLevelName(Grid.Levels[L]),
              formatString("%+.1f%%", mean(LevelE)),
              formatString("%+.1f%%", mean(LevelP)),
              formatString("%+.1f%%", mean(LevelT))});
    EnergyPct.insert(EnergyPct.end(), LevelE.begin(), LevelE.end());
    PowerPct.insert(PowerPct.end(), LevelP.begin(), LevelP.end());
    TimePct.insert(TimePct.end(), LevelT.begin(), LevelT.end());
  }

  std::printf("%s\n", T.render().c_str());
  std::printf("overall averages (%zu runs):\n", CR.Results.size());
  std::printf("  energy: %+.1f%%   (paper: -7.7%%)\n", mean(EnergyPct));
  std::printf("  power:  %+.1f%%   (paper: -21.9%%)\n", mean(PowerPct));
  std::printf("  time:   %+.1f%%   (paper: +19.5%%)\n", mean(TimePct));

  bool Shape = mean(EnergyPct) < 0 && mean(PowerPct) < mean(EnergyPct) &&
               mean(TimePct) > 0;
  std::printf("\nshape (energy down, power down more, time up): %s\n",
              Shape ? "YES" : "NO");
  return Shape ? 0 : 1;
}
