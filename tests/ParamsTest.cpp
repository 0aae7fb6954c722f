//===- tests/ParamsTest.cpp - model parameter extraction --------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "core/BlockParams.h"

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

ModelParams extractFigure2(Module &M) {
  ModuleFrequency Freq = estimateModuleFrequency(M);
  return extractParams(M, Freq, PowerModel::stm32f100());
}

} // namespace

TEST(Params, GlobalNumbering) {
  Module M = figure2Module();
  ModelParams MP = extractFigure2(M);
  ASSERT_EQ(MP.numBlocks(), 5u);
  EXPECT_EQ(MP.globalIndex(0, 2), 2u);
  EXPECT_EQ(MP.Blocks[1].Name, "fn:loop");
}

TEST(Params, SizesCountEncodingsAndPools) {
  Module M = figure2Module();
  ModelParams MP = extractFigure2(M);
  // init: two 16-bit movs = 4 bytes.
  EXPECT_EQ(MP.Blocks[0].Sb, 4u);
  // loop: mul(2) + add(2) + cmp(2) + bne(2) = 8.
  EXPECT_EQ(MP.Blocks[1].Sb, 8u);

  // A block with a literal load also counts its pool word.
  M.addRodataWords("tab", {1});
  M.Functions[0].Blocks[0].Instrs.push_back(ldrLitSym(R3, "tab"));
  ModelParams MP2 = extractFigure2(M);
  EXPECT_EQ(MP2.Blocks[0].Sb, 4u + 2u + 4u);
}

TEST(Params, CyclesUseTakenProbability) {
  Module M = figure2Module();
  ModelParams MP = extractFigure2(M);
  // loop: mul(1) + add(1) + cmp(1) + bne at p=0.9: 0.9*3 + 0.1*1 = 2.8.
  EXPECT_NEAR(MP.Blocks[1].Cb, 3.0 + 2.8, 1e-9);
  // Instruction-count metric sees 4 instructions.
  EXPECT_DOUBLE_EQ(MP.Blocks[1].Ib, 4.0);
}

TEST(Params, FrequencyFromLoopDepth) {
  Module M = figure2Module();
  ModelParams MP = extractFigure2(M);
  EXPECT_DOUBLE_EQ(MP.Blocks[0].Fb, 1.0);
  EXPECT_DOUBLE_EQ(MP.Blocks[1].Fb, 10.0);
  EXPECT_DOUBLE_EQ(MP.Blocks[4].Fb, 1.0);
}

TEST(Params, Figure4InstrumentationCosts) {
  Module M = figure2Module();
  ModelParams MP = extractFigure2(M);

  // loop ends in a conditional branch: 8-2 = 6 extra instruction bytes
  // plus two pool words; cycles 7 - (0.9*3 + 0.1*1) = 4.2.
  EXPECT_EQ(MP.Blocks[1].Kb, 6u + 8u);
  EXPECT_NEAR(MP.Blocks[1].Tb, 7.0 - 2.8, 1e-9);
  EXPECT_DOUBLE_EQ(MP.Blocks[1].TbInstr, 3.0);

  // iftrue ends in an unconditional branch: 2 extra bytes + one pool
  // word; 4 - 3 = 1 extra cycle.
  EXPECT_EQ(MP.Blocks[3].Kb, 2u + 4u);
  EXPECT_NEAR(MP.Blocks[3].Tb, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(MP.Blocks[3].TbInstr, 0.0);

  // init falls through: a whole new ldr pc (4 bytes + pool, 4 cycles).
  EXPECT_EQ(MP.Blocks[0].Kb, 4u + 4u);
  EXPECT_NEAR(MP.Blocks[0].Tb, 4.0, 1e-9);

  // return needs nothing (bx lr is already indirect).
  EXPECT_EQ(MP.Blocks[4].Kb, 0u);
  EXPECT_DOUBLE_EQ(MP.Blocks[4].Tb, 0.0);
}

TEST(Params, PoolCountingCanBeDisabled) {
  Module M = figure2Module();
  ModuleFrequency Freq = estimateModuleFrequency(M);
  ExtractOptions Opts;
  Opts.CountLiteralPoolInKb = false;
  ModelParams MP = extractParams(M, Freq, PowerModel::stm32f100(), Opts);
  EXPECT_EQ(MP.Blocks[1].Kb, 6u); // Figure 4's raw byte count
  EXPECT_EQ(MP.Blocks[3].Kb, 2u);
}

TEST(Params, CmpBranchCosts) {
  Module M;
  M.EntryFunction = "f";
  Function F("f");
  F.Blocks.push_back(makeBlock("a", {cbz(R0, "out")}));
  F.Blocks.push_back(makeBlock("mid", {nop()}));
  F.Blocks.push_back(makeBlock("out", {bx(LR)}));
  M.Functions.push_back(F);
  ModuleFrequency Freq = estimateModuleFrequency(M);
  ModelParams MP = extractParams(M, Freq, PowerModel::stm32f100());
  EXPECT_EQ(MP.Blocks[0].Term, TermKind::CmpBranch);
  EXPECT_EQ(MP.Blocks[0].Kb, 8u + 8u);
  // cmp+ite+ldr+ldr+bx = 8 cycles vs 0.5*3+0.5*1 = 2 -> 6 extra.
  EXPECT_NEAR(MP.Blocks[0].Tb, 6.0, 1e-9);
  EXPECT_DOUBLE_EQ(MP.Blocks[0].TbInstr, 4.0);
}

TEST(Params, LoadCountsIntoLb) {
  Module M;
  M.addBss("buf", 16);
  Function F("main");
  F.Blocks.push_back(makeBlock(
      "a", {ldrLitSym(R1, "buf"), ldrImm(R2, R1, 0), ldrImm(R3, R1, 4),
            strImm(R2, R1, 8), bx(LR)}));
  M.Functions.push_back(F);
  ModuleFrequency Freq = estimateModuleFrequency(M);
  ModelParams MP = extractParams(M, Freq, PowerModel::stm32f100());
  // Three load-class instructions (ldrLit + two ldr), store excluded.
  EXPECT_DOUBLE_EQ(MP.Blocks[0].Lb, 3.0);
}

TEST(Params, SuccessorsAndCalls) {
  Module M = figure2Module();
  Function Main("main");
  Main.Blocks.push_back(
      makeBlock("entry", {bl("fn"), bl("fn"), bkpt()}));
  M.Functions.push_back(Main);
  M.EntryFunction = "main";
  ModelParams MP = extractFigure2(M);

  // fn:loop's successors: itself and fn:if.
  EXPECT_EQ(MP.Blocks[1].Succs.size(), 2u);
  // main:entry has two calls to fn, grouped.
  const BlockParams &MainEntry = MP.Blocks[5];
  ASSERT_EQ(MainEntry.Calls.size(), 1u);
  EXPECT_EQ(MainEntry.Calls[0].CalleeEntry, 0u);
  EXPECT_EQ(MainEntry.Calls[0].Count, 2u);
}

TEST(Params, LibraryBlocksNotMovable) {
  Module M = figure2Module();
  M.Functions[0].Optimizable = false;
  ModelParams MP = extractFigure2(M);
  for (const BlockParams &B : MP.Blocks)
    EXPECT_FALSE(B.Movable);
}

TEST(Params, CalleesOfLibraryCodePinned) {
  Module M = figure2Module();
  // A library function calls fn: fn's entry must stay in flash because
  // the library call site cannot be rewritten.
  Function Lib("libfn");
  Lib.Optimizable = false;
  Lib.Blocks.push_back(makeBlock("entry", {push(1u << LR), bl("fn"),
                                           pop(1u << PC)}));
  M.Functions.push_back(Lib);
  ModelParams MP = extractFigure2(M);
  EXPECT_FALSE(MP.Blocks[0].Movable); // fn:init pinned
  EXPECT_TRUE(MP.Blocks[1].Movable);  // the loop can still move
}

TEST(Params, EnergyCoefficients) {
  Module M = figure2Module();
  ModelParams MP = extractFigure2(M);
  EXPECT_GT(MP.EFlash, MP.ERam);
  EXPECT_DOUBLE_EQ(MP.ClockHz, 24e6);
  // bl -> ldr+blx: (2+3) - 4 = 1 extra cycle.
  EXPECT_DOUBLE_EQ(MP.CallInstrCycles, 1.0);
}
