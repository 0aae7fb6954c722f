//===- tools/ramloc-sim.cpp - run a module on the simulated SoC --------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// Loads a module in the ramloc assembly dialect, links it for the
// STM32F100-like memory map, executes it on the simulator, prices the
// run under the reference timing model, and reports energy/time/power
// with optional breakdowns — the software stand-in for the paper's
// power-instrumented board.
//
//===----------------------------------------------------------------------===//

#include "asmio/Parser.h"
#include "campaign/Report.h"
#include "core/Pipeline.h"
#include "mir/Verifier.h"
#include "support/Flags.h"
#include "support/Table.h"

#include <cstdio>

using namespace ramloc;

int main(int Argc, char **Argv) {
  bool Profile = false, Breakdown = false, NoStartup = false, Help = false;
  SimOptions Sim;
  FlagTable Flags("usage: ramloc-sim [options] input.s\n");
  Flags.section("options");
  Flags.add("profile", "print per-block execution counts", Profile);
  Flags.add("breakdown", "print the cycle/energy attribution matrix",
            Breakdown);
  Flags.add("no-startup", "skip the startup-copy cost", NoStartup);
  Flags.add("max-cycles", "N",
            "cycle budget: a run whose total, startup copy included, "
            "exceeds N fails with 'cycle limit exceeded' (default "
            "4000000000)",
            bindValue(Sim.MaxCycles, parseUInt64));
  Flags.add("help", "print this help and exit", Help);

  std::vector<std::string> Inputs;
  std::string Error, Text;
  bool Parsed = Flags.parse(Argc, Argv, Inputs, Error);
  if (Parsed && Help) {
    std::fputs(Flags.help().c_str(), stdout);
    return 0;
  }
  if (!Parsed || Inputs.size() != 1) {
    std::fprintf(stderr, "error: %s\n%s",
                 Error.empty() ? "expected one input file" : Error.c_str(),
                 Flags.help().c_str());
    return 2;
  }
  Sim.IncludeStartupCopy = !NoStartup;
  if (!readTextFile(Inputs[0], Text, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  // The linker relies on a verified module (an entry function, resolvable
  // targets). Scratch-register discipline only matters to the instrumenter,
  // which never runs here.
  ParseResult PR = parseAssembly(Text);
  if (PR.ok())
    for (const std::string &D :
         verifyModule(PR.M, {/*EnforceScratchDiscipline=*/false}))
      PR.Errors.push_back("verifier: " + D);
  if (!PR.ok()) {
    for (const std::string &E : PR.Errors)
      std::fprintf(stderr, "%s: %s\n", Inputs[0].c_str(), E.c_str());
    return 1;
  }

  LinkResult LR = linkModule(PR.M);
  if (!LR.ok()) {
    for (const std::string &E : LR.Errors)
      std::fprintf(stderr, "link: %s\n", E.c_str());
    return 1;
  }

  PowerModel PM = PowerModel::stm32f100();
  RunStats Stats = runImage(LR.Img, Sim);
  if (!Stats.ok()) {
    std::fprintf(stderr, "run: %s\n", Stats.Error.c_str());
    return 1;
  }
  EnergyReport E = PM.integrate(Stats);

  std::printf("exit code:   0x%08x\n", Stats.ExitCode);
  std::printf("cycles:      %llu (%.3f ms at %.0f MHz)\n",
              static_cast<unsigned long long>(Stats.Cycles),
              E.Seconds * 1e3, PM.ClockHz / 1e6);
  std::printf("instructions:%llu\n",
              static_cast<unsigned long long>(Stats.Instructions));
  std::printf("energy:      %.4f mJ (flash %.4f + ram %.4f)\n",
              E.MilliJoules, E.FlashMilliJoules, E.RamMilliJoules);
  std::printf("avg power:   %.2f mW\n", E.AvgMilliWatts);
  std::printf("fetch split: flash %llu / ram %llu cycles, "
              "%llu contention stalls\n",
              static_cast<unsigned long long>(
                  Stats.fetchCycles(MemKind::Flash)),
              static_cast<unsigned long long>(
                  Stats.fetchCycles(MemKind::Ram)),
              static_cast<unsigned long long>(Stats.ContentionStalls));
  std::printf("sections:    flash code %u B (+%u pool), ramcode %u B "
              "(+%u pool), rodata %u, data %u, bss %u\n",
              LR.Img.Sizes.FlashCode, LR.Img.Sizes.FlashPool,
              LR.Img.Sizes.RamCode, LR.Img.Sizes.RamPool,
              LR.Img.Sizes.Rodata, LR.Img.Sizes.Data, LR.Img.Sizes.Bss);

  if (Breakdown) {
    std::printf("\ncycle attribution [fetch memory x instruction class]:\n");
    Table T({"class", "flash cycles", "ram cycles"});
    for (unsigned C = 0; C != 7; ++C) {
      char F[32], R[32];
      std::snprintf(F, sizeof F, "%llu",
                    static_cast<unsigned long long>(Stats.ClassCycles[0][C]));
      std::snprintf(R, sizeof R, "%llu",
                    static_cast<unsigned long long>(Stats.ClassCycles[1][C]));
      T.addRow({instrClassName(static_cast<InstrClass>(C)), F, R});
    }
    std::printf("%s", T.render().c_str());
    std::printf("load cycles by data source: flash->flash %llu, "
                "flash->ram %llu, ram->flash %llu, ram->ram %llu\n",
                static_cast<unsigned long long>(Stats.LoadCycles[0][0]),
                static_cast<unsigned long long>(Stats.LoadCycles[0][1]),
                static_cast<unsigned long long>(Stats.LoadCycles[1][0]),
                static_cast<unsigned long long>(Stats.LoadCycles[1][1]));
  }

  if (Profile) {
    std::printf("\nper-block execution counts:\n");
    for (const auto &[Name, Count] : Stats.profileMap(PR.M))
      if (Count > 0)
        std::printf("  %-28s %12llu\n", Name.c_str(),
                    static_cast<unsigned long long>(Count));
  }
  return 0;
}
