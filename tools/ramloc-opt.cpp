//===- tools/ramloc-opt.cpp - command-line driver ---------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// Reads a module in the ramloc assembly dialect, runs the flash->RAM
// placement optimization, and writes the optimized assembly plus a
// report. The post-compilation placement (Section 5: "the actual
// transformation itself happens at the very end of compilation") makes a
// standalone tool the natural packaging.
//
//===----------------------------------------------------------------------===//

#include "asmio/Parser.h"
#include "asmio/Printer.h"
#include "campaign/Report.h"
#include "core/Pipeline.h"
#include "support/Flags.h"

#include <cstdio>

using namespace ramloc;

int main(int Argc, char **Argv) {
  PipelineOptions Opts;
  std::string OutPath;
  bool NoCalls = false, Quiet = false, Help = false;
  FlagTable Flags("usage: ramloc-opt [options] input.s\n");
  Flags.section("options");
  Flags.add("rspare", "N", "RAM bytes available for code (default 2048)",
            bindValue(Opts.Knobs.RspareBytes, parseUnsigned));
  Flags.add("xlimit", "F", "max execution-time ratio (default 1.5)",
            bindValue(Opts.Knobs.Xlimit, parseFiniteDouble));
  Flags.add("profile", "profile the baseline for Fb instead of estimating",
            Opts.UseProfiledFrequencies);
  Flags.add("no-calls", "do not model cross-memory calls", NoCalls);
  Flags.add("out", "FILE", "write optimized assembly here (default stdout)",
            bindValue(OutPath, parsePath));
  Flags.add("quiet", "suppress the report", Quiet);
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
  Opts.Knobs.ModelCallEdges = !NoCalls;
  if (!readTextFile(Inputs[0], Text, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  ParseResult PR = parseAssembly(Text);
  if (!PR.ok()) {
    for (const std::string &E : PR.Errors)
      std::fprintf(stderr, "%s: %s\n", Inputs[0].c_str(), E.c_str());
    return 1;
  }

  PipelineResult R = optimizeModule(PR.M, Opts);
  if (!R.ok()) {
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    return 1;
  }

  std::string Asm = printModule(R.Optimized);
  if (OutPath.empty()) {
    std::fputs(Asm.c_str(), stdout);
  } else if (!writeTextFile(OutPath, Asm, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  if (!Quiet) {
    std::fprintf(stderr, "ramloc-opt: moved %zu block(s) to RAM "
                         "(%u branch, %u fall-through, %u call rewrites)\n",
                 R.MovedBlocks.size(), R.Rewrites.BranchesRewritten,
                 R.Rewrites.FallthroughsRewritten,
                 R.Rewrites.CallsRewritten);
    std::fprintf(stderr,
                 "  energy %.4f -> %.4f mJ (%+.1f%%), time %+.1f%%, "
                 "power %+.1f%%\n",
                 R.MeasuredBase.Energy.MilliJoules,
                 R.MeasuredOpt.Energy.MilliJoules, R.energyChangePct(),
                 R.timeChangePct(), R.powerChangePct());
    std::fprintf(stderr, "  RAM code: %u bytes; solver explored %u nodes\n",
                 R.PredictedOpt.RamBytes, R.Solver.NodesExplored);
  }
  return 0;
}
