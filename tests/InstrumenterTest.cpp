//===- tests/InstrumenterTest.cpp - Figure 4 transformation -----------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "beebs/Beebs.h"
#include "core/Instrumenter.h"
#include "core/Pipeline.h"
#include "mir/Verifier.h"

#include <gtest/gtest.h>

using namespace ramloc;
using namespace ramloc::build;

namespace {

BasicBlock makeBlock(const std::string &Label, std::vector<Instr> Instrs) {
  BasicBlock BB(Label);
  BB.Instrs = std::move(Instrs);
  return BB;
}

Module figure2Module() {
  Module M;
  M.EntryFunction = "fn";
  Function F("fn");
  F.Blocks.push_back(makeBlock("init", {movImm(R1, 1), movImm(R0, 0)}));
  F.Blocks.push_back(makeBlock("loop", {mul(R1, R1, R2),
                                        addImm(R0, R0, 1),
                                        cmpImm(R0, 64),
                                        bCond(Cond::NE, "loop")}));
  F.Blocks.push_back(
      makeBlock("if", {cmpImm(R1, 255), bCond(Cond::LE, "return")}));
  F.Blocks.push_back(makeBlock("iftrue", {movImm(R0, 255), b("return")}));
  F.Blocks.push_back(makeBlock("return", {movReg(R0, R1), bx(LR)}));
  M.Functions.push_back(F);
  return M;
}

ModelParams paramsFor(const Module &M) {
  return extractParams(M, estimateModuleFrequency(M),
                       PowerModel::stm32f100());
}

/// The RAM bytes the linker emits for \p InRam applied to \p M (code and
/// literal pools, without alignment padding), and the model's Eq. 7
/// figure for the same placement.
std::pair<unsigned, unsigned> linkedAndModelRamBytes(const Module &M,
                                                     const ModelParams &MP,
                                                     const Assignment &InRam) {
  Module Out = applyPlacement(M, MP, InRam);
  EXPECT_TRUE(moduleIsValid(Out)) << verifyModule(Out).front();
  LinkResult LR = linkModule(Out);
  EXPECT_TRUE(LR.ok()) << (LR.ok() ? "" : LR.Errors.front());
  return {LR.Img.Sizes.RamCode + LR.Img.Sizes.RamPool,
          evaluateAssignment(MP, InRam).RamBytes};
}

} // namespace

TEST(Instrumenter, NoOpWhenNothingMoves) {
  Module M = figure2Module();
  ModelParams MP = paramsFor(M);
  InstrumenterStats Stats;
  Module Out = applyPlacement(M, MP, Assignment(5, false), &Stats);
  EXPECT_EQ(Stats.BlocksMoved, 0u);
  EXPECT_EQ(Stats.BranchesRewritten, 0u);
  for (unsigned B = 0; B != 5; ++B) {
    EXPECT_EQ(Out.Functions[0].Blocks[B].Home, MemKind::Flash);
    EXPECT_EQ(Out.Functions[0].Blocks[B].Instrs,
              M.Functions[0].Blocks[B].Instrs);
  }
}

TEST(Instrumenter, PaperExampleLoopAndIf) {
  // The paper's Figure 2 placement: loop + if in RAM.
  Module M = figure2Module();
  ModelParams MP = paramsFor(M);
  Assignment InRam(5, false);
  InRam[1] = true; // loop
  InRam[2] = true; // if
  InstrumenterStats Stats;
  Module Out = applyPlacement(M, MP, InRam, &Stats);
  EXPECT_EQ(Stats.BlocksMoved, 2u);
  EXPECT_TRUE(moduleIsValid(Out)) << verifyModule(Out).front();

  const Function &F = Out.Functions[0];
  // init (flash) falls through into loop (RAM): needs ldr pc, =loop.
  EXPECT_TRUE(F.Blocks[0].Instrs.back().isLongJump());
  EXPECT_EQ(F.Blocks[0].Instrs.back().Sym, "loop");

  // loop (RAM): back edge stays in RAM, fall-through to if stays in RAM
  // -> no rewrite; terminator still bne.
  EXPECT_EQ(F.Blocks[1].Instrs.back().Kind, OpKind::BCond);

  // if (RAM): both successors (return, iftrue) are flash -> the Figure 4
  // ite/ldr/ldr/bx sequence.
  const auto &IfInstrs = F.Blocks[2].Instrs;
  ASSERT_GE(IfInstrs.size(), 5u);
  unsigned N = IfInstrs.size();
  EXPECT_EQ(IfInstrs[N - 4].Kind, OpKind::It);
  EXPECT_EQ(IfInstrs[N - 4].CondCode, Cond::LE);
  EXPECT_EQ(IfInstrs[N - 3].Kind, OpKind::LdrLit);
  EXPECT_EQ(IfInstrs[N - 3].Sym, "return");
  EXPECT_EQ(IfInstrs[N - 3].CondCode, Cond::LE);
  EXPECT_EQ(IfInstrs[N - 2].Sym, "iftrue");
  EXPECT_EQ(IfInstrs[N - 2].CondCode, Cond::GT);
  EXPECT_EQ(IfInstrs[N - 1].Kind, OpKind::Bx);
  EXPECT_EQ(IfInstrs[N - 1].Regs[0], ScratchReg);

  // The blocks are homed correctly.
  EXPECT_EQ(F.Blocks[1].Home, MemKind::Ram);
  EXPECT_EQ(F.Blocks[2].Home, MemKind::Ram);
  EXPECT_EQ(F.Blocks[0].Home, MemKind::Flash);
}

TEST(Instrumenter, UnconditionalBranchRewrite) {
  Module M = figure2Module();
  ModelParams MP = paramsFor(M);
  Assignment InRam(5, false);
  InRam[4] = true; // return moves to RAM
  Module Out = applyPlacement(M, MP, InRam);
  // iftrue's `b return` becomes `ldr pc, =return`.
  EXPECT_TRUE(Out.Functions[0].Blocks[3].Instrs.back().isLongJump());
  // if's conditional branch targets return too: full ITE rewrite.
  EXPECT_EQ(Out.Functions[0].Blocks[2].Instrs.back().Kind, OpKind::Bx);
  EXPECT_TRUE(moduleIsValid(Out)) << verifyModule(Out).front();
}

TEST(Instrumenter, CmpBranchRewrite) {
  Module M;
  M.EntryFunction = "f";
  Function F("f");
  F.Blocks.push_back(makeBlock("a", {cbnz(R0, "far")}));
  F.Blocks.push_back(makeBlock("near", {movImm(R0, 1), bkpt()}));
  F.Blocks.push_back(makeBlock("far", {movImm(R0, 2), bkpt()}));
  M.Functions.push_back(F);
  ModelParams MP = paramsFor(M);
  Assignment InRam(3, false);
  InRam[2] = true;
  Module Out = applyPlacement(M, MP, InRam);
  const auto &A = Out.Functions[0].Blocks[0].Instrs;
  // cbnz -> cmp #0; ite ne; ldrne; ldreq; bx (Figure 4 short conditional).
  ASSERT_EQ(A.size(), 5u);
  EXPECT_EQ(A[0].Kind, OpKind::CmpImm);
  EXPECT_EQ(A[1].Kind, OpKind::It);
  EXPECT_EQ(A[1].CondCode, Cond::NE);
  EXPECT_EQ(A[2].Sym, "far");
  EXPECT_EQ(A[3].Sym, "near");
  EXPECT_EQ(A[4].Kind, OpKind::Bx);
  EXPECT_TRUE(moduleIsValid(Out)) << verifyModule(Out).front();
}

TEST(Instrumenter, CallRewrite) {
  Module M;
  M.EntryFunction = "main";
  Function Main("main");
  Main.Blocks.push_back(makeBlock("entry", {movImm(R0, 3), bl("leaf"),
                                            bl("leaf"), bkpt()}));
  M.Functions.push_back(Main);
  Function Leaf("leaf");
  Leaf.Blocks.push_back(makeBlock("entry", {addImm(R0, R0, 1), bx(LR)}));
  M.Functions.push_back(Leaf);

  ModelParams MP = paramsFor(M);
  Assignment InRam(MP.numBlocks(), false);
  InRam[MP.globalIndex(1, 0)] = true; // move the leaf
  InstrumenterStats Stats;
  Module Out = applyPlacement(M, MP, InRam, &Stats);
  EXPECT_EQ(Stats.CallsRewritten, 2u);
  const auto &E = Out.Functions[0].Blocks[0].Instrs;
  // mov, (ldr r7,=leaf; blx r7) x2, bkpt.
  ASSERT_EQ(E.size(), 6u);
  EXPECT_EQ(E[1].Kind, OpKind::LdrLit);
  EXPECT_EQ(E[1].Regs[0], ScratchReg);
  EXPECT_EQ(E[1].Sym, "leaf");
  EXPECT_EQ(E[2].Kind, OpKind::Blx);
  EXPECT_TRUE(moduleIsValid(Out)) << verifyModule(Out).front();
}

TEST(Instrumenter, TransformedModuleLinksAndRuns) {
  Module M = figure2Module();
  // Wrap in a runnable main: fn(7) with k=7 -> saturates at 255.
  Function Main("main");
  Main.Blocks.push_back(makeBlock(
      "entry", {movImm(R2, 7), push(1u << LR), bl("fn"), pop(1u << PC)}));
  // pop {pc} returns to ExitAddress -> halt with r0.
  M.Functions.push_back(Main);
  M.EntryFunction = "main";

  Measurement Base = measureModule(M, PowerModel::stm32f100());
  ASSERT_TRUE(Base.ok()) << Base.Stats.Error;

  ModelParams MP = paramsFor(M);
  // Every non-trivial subset of fn's five blocks must produce a program
  // with identical output (32 subsets, including all-in-RAM).
  for (uint32_t Mask = 0; Mask != 32; ++Mask) {
    Assignment InRam(MP.numBlocks(), false);
    for (unsigned B = 0; B != 5; ++B)
      InRam[B] = (Mask >> B) & 1;
    Module Out = applyPlacement(M, MP, InRam);
    ASSERT_TRUE(moduleIsValid(Out)) << verifyModule(Out).front();
    Measurement Opt = measureModule(Out, PowerModel::stm32f100());
    ASSERT_TRUE(Opt.ok()) << "mask " << Mask << ": " << Opt.Stats.Error;
    EXPECT_EQ(Opt.Stats.ExitCode, Base.Stats.ExitCode) << "mask " << Mask;
  }
}

TEST(Instrumenter, StatsCountRewrites) {
  Module M = figure2Module();
  ModelParams MP = paramsFor(M);
  Assignment InRam(5, false);
  InRam[1] = true;
  InstrumenterStats Stats;
  applyPlacement(M, MP, InRam, &Stats);
  // init->loop fall-through rewritten; loop's bne rewritten (fall-through
  // crosses back to flash).
  EXPECT_EQ(Stats.FallthroughsRewritten, 1u);
  EXPECT_EQ(Stats.BranchesRewritten, 1u);
  EXPECT_EQ(Stats.BlocksMoved, 1u);
}

TEST(Instrumenter, ModelRamBytesCoverTheLinkedImageOverBeebs) {
  // The model may over-count (identical literals share a pool slot) but
  // never under-count the RAM the linker fills with code and pools.
  unsigned Points = 0, WithRamCode = 0;
  for (const BeebsInfo &Info : beebsSuite())
    for (OptLevel Level : AllOptLevels) {
      std::string Name = std::string(Info.Name) + " " + optLevelName(Level);
      Module M = buildBeebs(Info.Name, Level, 2);
      PipelineOptions PO;
      ExtractedModule EM = extractModule(M, PO, /*NeedBaseline=*/false);
      ASSERT_TRUE(EM.ok()) << Name << ": " << EM.Error;
      PlacementSolver Solver(EM.MP, PO.Knobs);
      for (unsigned Rspare : {32u, 64u, 128u, 256u, 384u, 512u, 768u, 1024u,
                              2048u})
        for (double Xlimit : {1.1, 1.5, 3.0}) {
          ModelKnobs Knobs = PO.Knobs;
          Knobs.RspareBytes = Rspare;
          Knobs.Xlimit = Xlimit;
          Assignment InRam = Solver.solve(Knobs, PO.Solver);
          auto [Linked, Model] = linkedAndModelRamBytes(M, EM.MP, InRam);
          EXPECT_LE(Linked, Model) << Name << " rspare " << Rspare
                                   << " xlimit " << Xlimit;
          ++Points;
          WithRamCode += Linked > 0;
        }
    }
  EXPECT_EQ(Points, 1350u);
  EXPECT_GE(WithRamCode, 1000u);
}

TEST(Instrumenter, ModelRamBytesEqualTheLinkedImageForEachRewrite) {
  // One RAM block per Figure 4 row, each literal naming a distinct
  // symbol, so no pool slot is shared and the two figures must agree.
  Module M;
  M.EntryFunction = "main";
  Function Main("main");
  Main.Blocks.push_back(makeBlock("call", {movImm(R0, 1), bl("leaf")}));
  Main.Blocks.push_back(makeBlock("fall", {movImm(R1, 2)}));
  Main.Blocks.push_back(makeBlock("cond", {cmpImm(R0, 0), bCond(Cond::NE,
                                                                "far")}));
  Main.Blocks.push_back(makeBlock("short", {cbz(R0, "far")}));
  Main.Blocks.push_back(makeBlock("uncond", {b("far")}));
  Main.Blocks.push_back(makeBlock("near", {movImm(R0, 3), bkpt()}));
  Main.Blocks.push_back(makeBlock("far", {movImm(R0, 4), bkpt()}));
  M.Functions.push_back(Main);
  Function Leaf("leaf");
  Leaf.Blocks.push_back(makeBlock("entry", {addImm(R0, R0, 1), bx(LR)}));
  M.Functions.push_back(Leaf);
  ASSERT_TRUE(moduleIsValid(M)) << verifyModule(M).front();
  ModelParams MP = paramsFor(M);

  // Each block alone in RAM: its code and its own rewrites are all the
  // RAM holds (the rewrites into it sit in flash).
  for (const char *Label : {"call", "fall", "cond", "short", "uncond"}) {
    Assignment InRam(MP.numBlocks(), false);
    InRam[MP.globalIndex(0, static_cast<unsigned>(
                                Main.blockIndex(Label)))] = true;
    auto [Linked, Model] = linkedAndModelRamBytes(M, MP, InRam);
    EXPECT_GT(Linked, 0u) << Label;
    EXPECT_EQ(Linked, Model) << Label;
  }
}
