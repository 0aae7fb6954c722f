//===- bench/fig2_motivating.cpp - Figures 2 and 4 ---------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// Regenerates the paper's worked example: Figure 2's function with its
// inner loop moved to RAM, and Figure 4's instrumentation cost table
// (cycles/bytes per rewritten control-transfer kind), asserted against
// the published numbers.
//
//===----------------------------------------------------------------------===//

#include "asmio/Parser.h"
#include "asmio/Printer.h"
#include "core/Figure4.h"
#include "core/Pipeline.h"
#include "support/Format.h"
#include "support/Table.h"

#include <cstdio>

using namespace ramloc;

namespace {

const char *Fig2Program = R"(
.module figure2
.entry main
.func fn
.block init
    mov r1, #1
    mov r0, #0
.block loop
    mul r1, r1, r2
    add r0, r0, #1
    cmp r0, #64
    bne loop
.block if
    cmp r1, #255
    ble return
.block iftrue
    mov r1, #255
.block return
    mov r0, r1
    bx lr
.func main
.block entry
    push {r4, r5, lr}
    mov r4, #500
    mov r5, #0
.block call
    and r2, r4, #3
    add r2, r2, #2
    bl fn
    eor r5, r5, r0
    add r5, r5, r4
    sub r4, r4, #1
    cmp r4, #0
    bne call
.block done
    mov r0, r5
    bkpt
)";

} // namespace

int main() {
  std::printf("== Figure 4: instrumentation costs per rewritten "
              "control transfer ==\n\n");

  // Each row's sequence priced from the Figure 4 table with the default
  // timing model, against the published cycles / bytes.
  TimingModel TM;
  Table T({"transfer kind", "sequence", "cycles", "bytes",
           "paper cyc/B"});
  bool Fig4OK = true;
  auto addRow = [&](const char *Name, const char *Seq, Figure4Kind Kind,
                    unsigned PaperCycles, unsigned PaperBytes) {
    Figure4Price P = priceFigure4(figure4Row(Kind), TM);
    T.addRow({Name, Seq, formatString("%u", P.Cycles),
              formatString("%u", P.Bytes),
              formatString("%u / %u", PaperCycles, PaperBytes)});
    Fig4OK = Fig4OK && P.Cycles == PaperCycles && P.Bytes == PaperBytes;
  };
  addRow("unconditional", "ldr pc, =label", Figure4Kind::Branch, 4, 4);
  addRow("conditional", "ite; ldrcc; ldrcc; bx", Figure4Kind::CondBranch,
         7, 8);
  addRow("short conditional", "cmp; ite; ldrcc; ldrcc; bx",
         Figure4Kind::CmpBranch, 8, 10);
  addRow("fall-through", "ldr pc, =label", Figure4Kind::FallThrough, 4, 4);
  std::printf("%s\n", T.render().c_str());
  std::printf("Figure 4 cycle counts reproduced exactly: %s\n\n",
              Fig4OK ? "YES" : "NO");

  ParseResult PR = parseAssembly(Fig2Program);
  if (!PR.ok()) {
    std::printf("parse: %s\n", PR.Errors.front().c_str());
    return 1;
  }

  std::printf("== Figure 2: the motivating function, optimized ==\n\n");
  PipelineOptions Opts;
  Opts.Knobs.RspareBytes = 28; // force a choice like the paper's figure
  PipelineResult R = optimizeModule(PR.M, Opts);
  if (!R.ok()) {
    std::printf("pipeline: %s\n", R.Error.c_str());
    return 1;
  }
  std::printf("moved to RAM:");
  for (const std::string &N : R.MovedBlocks)
    std::printf(" %s", N.c_str());
  std::printf("\nenergy %+.1f%%, time %+.1f%%, power %+.1f%%, "
              "checksum preserved: %s\n\n",
              (R.MeasuredOpt.Energy.MilliJoules /
                   R.MeasuredBase.Energy.MilliJoules -
               1.0) *
                  100.0,
              (R.MeasuredOpt.Energy.Seconds /
                   R.MeasuredBase.Energy.Seconds -
               1.0) *
                  100.0,
              (R.MeasuredOpt.Energy.AvgMilliWatts /
                   R.MeasuredBase.Energy.AvgMilliWatts -
               1.0) *
                  100.0,
              R.MeasuredBase.Stats.ExitCode ==
                      R.MeasuredOpt.Stats.ExitCode
                  ? "yes"
                  : "NO");
  std::printf("optimized fn:\n");
  // Print just fn's blocks.
  Module OneFunc;
  OneFunc.Name = "fn_only";
  OneFunc.EntryFunction = "fn";
  OneFunc.Functions.push_back(*R.Optimized.findFunction("fn"));
  std::printf("%s\n", printModule(OneFunc).c_str());
  return Fig4OK ? 0 : 1;
}
