//===- core/BlockParams.cpp - model parameter extraction ----------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "core/BlockParams.h"

#include "core/Figure4.h"
#include "isa/Encoding.h"

#include <cassert>
#include <optional>

using namespace ramloc;

namespace {

/// What a Figure 4 row adds to the transfer it replaces, priced once
/// per extraction.
struct RowCost {
  Figure4Price Seq;
  double Instrs;
  std::optional<Instr> Original;

  RowCost(const Figure4Row &Row, const TimingModel &T)
      : Seq(priceFigure4(Row, T)), Instrs(Row.Slots.size()) {
    if (Row.Original) {
      Original.emplace().Kind = *Row.Original;
      Seq.Bytes -= encodingSizeBytes(*Original);
      Instrs -= 1.0;
    }
  }

  /// Extra cycles per execution when the transfer is taken with
  /// probability \p TakenProb.
  double tb(double TakenProb, const TimingModel &T) const {
    double Orig = !Original ? 0.0
                  : Original->isCondBranch()
                      ? T.expectedBranchCycles(*Original, TakenProb)
                      : static_cast<double>(T.cycles(*Original, true));
    return static_cast<double>(Seq.Cycles) - Orig;
  }
};

} // namespace

ModelParams ramloc::extractParams(const Module &M,
                                  const ModuleFrequency &Freq,
                                  const PowerModel &Power,
                                  const ExtractOptions &Opts) {
  ModelParams MP;
  MP.EFlash = Power.eFlash();
  MP.ERam = Power.eRam();
  MP.ClockHz = Power.ClockHz;
  const TimingModel &T = Opts.Timing;
  std::vector<RowCost> Costs;
  for (const Figure4Row &Row : Figure4Table)
    Costs.emplace_back(Row, T);
  const RowCost &Call = Costs[static_cast<unsigned>(Figure4Kind::Call)];
  MP.CallInstrCycles = Call.tb(1.0, T); // a call is always taken
  MP.CallInstrBytes = Call.Seq.Bytes;
  MP.CallInstrPoolBytes = 4 * Call.Seq.Literals;

  // Global numbering.
  MP.FuncOffset.resize(M.Functions.size());
  unsigned Total = 0;
  for (unsigned F = 0, NF = M.Functions.size(); F != NF; ++F) {
    MP.FuncOffset[F] = Total;
    Total += M.Functions[F].Blocks.size();
  }
  MP.Blocks.resize(Total);

  for (unsigned F = 0, NF = M.Functions.size(); F != NF; ++F) {
    const Function &Fn = M.Functions[F];
    CFG G = CFG::build(Fn);

    for (unsigned B = 0, NB = Fn.Blocks.size(); B != NB; ++B) {
      const BasicBlock &BB = Fn.Blocks[B];
      BlockParams &P = MP.Blocks[MP.globalIndex(F, B)];
      P.Name = Fn.Name + ":" + BB.Label;
      P.Movable = Fn.Optimizable || Opts.TreatLibraryAsMovable;
      P.Term = G.edges(B).Term;
      P.Fb = Freq.BlockFreq[F][B];
      double TakenProb = Freq.TakenProb[F][B];

      // Sb / Cb / Lb from the instruction list.
      for (const Instr &I : BB.Instrs) {
        P.Ib += 1.0;
        P.Sb += encodingSizeBytes(I);
        if (I.Kind == OpKind::LdrLit)
          P.Sb += 4; // the block's own literal-pool word moves with it

        if (&I == &BB.Instrs.back() && I.isCondBranch())
          P.Cb += T.expectedBranchCycles(I, TakenProb);
        else
          P.Cb += T.cycles(I, /*Taken=*/true);

        // Section 4: Lb "is proportional to the number of load
        // instructions in the basic block".
        if (opClass(I.Kind) == InstrClass::Load)
          P.Lb += T.RamContentionStall;

        if (I.Kind == OpKind::Bl) {
          int Callee = M.functionIndex(I.Sym);
          assert(Callee >= 0 && "verified modules resolve all calls");
          unsigned Entry = MP.globalIndex(static_cast<unsigned>(Callee), 0);
          bool Found = false;
          for (CallSite &CS : P.Calls) {
            if (CS.CalleeEntry == Entry) {
              ++CS.Count;
              Found = true;
            }
          }
          if (!Found)
            P.Calls.push_back({Entry, 1});
        }
      }

      // Flash wait states: Cb models the flash-resident baseline, so
      // every fetch pays them; a block moved to RAM stops paying, which
      // rides on Lb as a negative per-execution term (the simulator
      // applies the same penalty per flash fetch).
      if (T.FlashWaitStates != 0) {
        double WaitCycles = P.Ib * T.FlashWaitStates;
        P.Cb += WaitCycles;
        P.Lb -= WaitCycles;
      }

      // Successor set from the CFG.
      for (unsigned S : G.edges(B).Succs)
        P.Succs.push_back(MP.globalIndex(F, S));

      // Kb / Tb from the Figure 4 row rewriting this block's terminator.
      if (const Figure4Row *Row = figure4RowEnding(BB)) {
        const RowCost &C = Costs[Row - Figure4Table];
        P.Kb = C.Seq.Bytes +
               (Opts.CountLiteralPoolInKb ? 4 * C.Seq.Literals : 0);
        P.Tb = C.tb(TakenProb, T);
        P.TbInstr = C.Instrs;
      }
    }
  }

  // Entries reachable from non-optimizable code must stay put: the caller
  // cannot be rewritten to reach RAM.
  for (const BlockParams &P : MP.Blocks) {
    if (P.Movable)
      continue;
    for (const CallSite &CS : P.Calls)
      MP.Blocks[CS.CalleeEntry].Movable = false;
  }

  return MP;
}
