//===- tests/MirTest.cpp - CFG / dominators / loops / frequency -----------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "mir/CFG.h"
#include "mir/Dominators.h"
#include "mir/Frequency.h"
#include "mir/Loops.h"
#include "mir/Module.h"
#include "mir/Verifier.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace ramloc;
using namespace ramloc::build;

namespace {

BasicBlock makeBlock(const std::string &Label, std::vector<Instr> Instrs) {
  BasicBlock BB(Label);
  BB.Instrs = std::move(Instrs);
  return BB;
}

/// The paper's Figure 2 function: init -> loop (self) -> if -> iftrue? ->
/// return.
Function figure2Function() {
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
  return F;
}

Module figure2Module() {
  Module M;
  M.Name = "fig2";
  M.EntryFunction = "fn";
  M.Functions.push_back(figure2Function());
  return M;
}

} // namespace

TEST(Module, Lookup) {
  Module M = figure2Module();
  EXPECT_NE(M.findFunction("fn"), nullptr);
  EXPECT_EQ(M.findFunction("nope"), nullptr);
  EXPECT_EQ(M.Functions[0].blockIndex("loop"), 1);
  EXPECT_EQ(M.Functions[0].blockIndex("missing"), -1);
  EXPECT_EQ(M.numBlocks(), 5u);
}

TEST(Module, DataHelpers) {
  Module M;
  M.addRodataWords("tab", {1, 2});
  M.addDataWords("var", {3});
  M.addBss("buf", 64, 8);
  EXPECT_EQ(M.findData("tab")->sizeBytes(), 8u);
  EXPECT_EQ(M.findData("tab")->Sect, DataObject::Section::Rodata);
  EXPECT_EQ(M.findData("var")->Bytes[0], 3u);
  EXPECT_EQ(M.findData("buf")->sizeBytes(), 64u);
  EXPECT_EQ(M.findData("buf")->Align, 8u);
  EXPECT_EQ(M.findData("zzz"), nullptr);
}

TEST(CFG, Figure2Shape) {
  Function F = figure2Function();
  CFG G = CFG::build(F);
  ASSERT_EQ(G.size(), 5u);

  // init falls through to loop.
  EXPECT_EQ(G.edges(0).Term, TermKind::Fallthrough);
  EXPECT_EQ(G.edges(0).FallSucc, 1);

  // loop: conditional self-edge + fallthrough to if.
  EXPECT_EQ(G.edges(1).Term, TermKind::Cond);
  EXPECT_EQ(G.edges(1).TakenSucc, 1);
  EXPECT_EQ(G.edges(1).FallSucc, 2);
  ASSERT_EQ(G.edges(1).Succs.size(), 2u);

  // if: conditional to return / fallthrough to iftrue.
  EXPECT_EQ(G.edges(2).Term, TermKind::Cond);
  EXPECT_EQ(G.edges(2).TakenSucc, 4);
  EXPECT_EQ(G.edges(2).FallSucc, 3);

  // iftrue: unconditional to return.
  EXPECT_EQ(G.edges(3).Term, TermKind::Uncond);
  EXPECT_EQ(G.edges(3).TakenSucc, 4);

  // return: no successors.
  EXPECT_EQ(G.edges(4).Term, TermKind::Return);
  EXPECT_TRUE(G.edges(4).Succs.empty());

  // Predecessors of return: if (taken) and iftrue.
  EXPECT_EQ(G.edges(4).Preds.size(), 2u);
}

TEST(CFG, ReversePostOrderStartsAtEntry) {
  Function F = figure2Function();
  CFG G = CFG::build(F);
  ASSERT_FALSE(G.reversePostOrder().empty());
  EXPECT_EQ(G.reversePostOrder()[0], 0u);
  for (unsigned B = 0; B != G.size(); ++B)
    EXPECT_TRUE(G.isReachable(B));
}

TEST(CFG, UnreachableBlockDetected) {
  Function F("f");
  F.Blocks.push_back(makeBlock("entry", {b("exit")}));
  F.Blocks.push_back(makeBlock("dead", {movImm(R0, 1), b("exit")}));
  F.Blocks.push_back(makeBlock("exit", {bx(LR)}));
  CFG G = CFG::build(F);
  EXPECT_TRUE(G.isReachable(0));
  EXPECT_FALSE(G.isReachable(1));
  EXPECT_TRUE(G.isReachable(2));
}

TEST(CFG, HaltAndIndirect) {
  Function F("f");
  F.Blocks.push_back(makeBlock("entry", {bkpt()}));
  CFG G = CFG::build(F);
  EXPECT_EQ(G.edges(0).Term, TermKind::Halt);

  Function F2("g");
  F2.Blocks.push_back(makeBlock("entry", {ldrLitSym(PC, "next")}));
  F2.Blocks.push_back(makeBlock("next", {bx(LR)}));
  CFG G2 = CFG::build(F2);
  EXPECT_EQ(G2.edges(0).Term, TermKind::IndirectJump);
  EXPECT_EQ(G2.edges(0).TakenSucc, 1);
}

TEST(Dominators, Figure2) {
  Function F = figure2Function();
  CFG G = CFG::build(F);
  DominatorTree DT = DominatorTree::build(G);
  EXPECT_EQ(DT.idom(0), -1);
  EXPECT_EQ(DT.idom(1), 0);
  EXPECT_EQ(DT.idom(2), 1);
  EXPECT_EQ(DT.idom(3), 2);
  EXPECT_EQ(DT.idom(4), 2); // return joins if/iftrue
  EXPECT_TRUE(DT.dominates(0, 4));
  EXPECT_TRUE(DT.dominates(1, 4));
  EXPECT_TRUE(DT.dominates(2, 3));
  EXPECT_FALSE(DT.dominates(3, 4));
  EXPECT_TRUE(DT.dominates(3, 3));
}

TEST(Dominators, Diamond) {
  Function F("f");
  F.Blocks.push_back(makeBlock("a", {cmpImm(R0, 0), bCond(Cond::EQ, "c")}));
  F.Blocks.push_back(makeBlock("b", {b("d")}));
  F.Blocks.push_back(makeBlock("c", {nop()})); // falls to d
  F.Blocks.push_back(makeBlock("d", {bx(LR)}));
  CFG G = CFG::build(F);
  DominatorTree DT = DominatorTree::build(G);
  EXPECT_EQ(DT.idom(3), 0); // join dominated by the fork, not a branch
  EXPECT_FALSE(DT.dominates(1, 3));
  EXPECT_FALSE(DT.dominates(2, 3));
}

TEST(Loops, Figure2SelfLoop) {
  Function F = figure2Function();
  CFG G = CFG::build(F);
  DominatorTree DT = DominatorTree::build(G);
  LoopInfo LI = LoopInfo::build(G, DT);
  ASSERT_EQ(LI.loops().size(), 1u);
  EXPECT_EQ(LI.loops()[0].Header, 1u);
  EXPECT_EQ(LI.depth(1), 1u);
  EXPECT_EQ(LI.depth(0), 0u);
  EXPECT_EQ(LI.depth(2), 0u);
  EXPECT_TRUE(LI.isBackEdge(1, 1));
  EXPECT_FALSE(LI.isBackEdge(0, 1));
  EXPECT_TRUE(LI.isExitEdge(1, 2));
}

TEST(Loops, NestedLoops) {
  // outer: header o; inner: header i inside o.
  Function F("f");
  F.Blocks.push_back(makeBlock("entry", {movImm(R0, 0)}));
  F.Blocks.push_back(makeBlock("outer", {movImm(R1, 0)}));
  F.Blocks.push_back(makeBlock("inner", {addImm(R1, R1, 1), cmpImm(R1, 10),
                                         bCond(Cond::NE, "inner")}));
  F.Blocks.push_back(makeBlock("latch", {addImm(R0, R0, 1), cmpImm(R0, 10),
                                         bCond(Cond::NE, "outer")}));
  F.Blocks.push_back(makeBlock("exit", {bx(LR)}));
  CFG G = CFG::build(F);
  DominatorTree DT = DominatorTree::build(G);
  LoopInfo LI = LoopInfo::build(G, DT);
  ASSERT_EQ(LI.loops().size(), 2u);
  EXPECT_EQ(LI.depth(0), 0u);
  EXPECT_EQ(LI.depth(1), 1u); // outer header
  EXPECT_EQ(LI.depth(2), 2u); // inner
  EXPECT_EQ(LI.depth(3), 1u); // outer latch
  EXPECT_EQ(LI.depth(4), 0u);
}

TEST(Frequency, LoopDepthEstimate) {
  Module M = figure2Module();
  ModuleFrequency MF = estimateModuleFrequency(M);
  // Depth-0 blocks run once, the loop ~10 times.
  EXPECT_DOUBLE_EQ(MF.BlockFreq[0][0], 1.0);
  EXPECT_DOUBLE_EQ(MF.BlockFreq[0][1], 10.0);
  EXPECT_DOUBLE_EQ(MF.BlockFreq[0][2], 1.0);
  // Back edge gets the high taken probability.
  EXPECT_DOUBLE_EQ(MF.TakenProb[0][1], 0.9);
}

TEST(Frequency, CallGraphPropagation) {
  Module M = figure2Module();
  // Add a main that calls fn from inside a loop.
  Function Main("main");
  Main.Blocks.push_back(makeBlock("entry", {movImm(R4, 0)}));
  Main.Blocks.push_back(makeBlock("call", {bl("fn"), addImm(R4, R4, 1),
                                           cmpImm(R4, 10),
                                           bCond(Cond::NE, "call")}));
  Main.Blocks.push_back(makeBlock("done", {bkpt()}));
  M.Functions.push_back(std::move(Main));
  M.EntryFunction = "main";

  ModuleFrequency MF = estimateModuleFrequency(M);
  int MainIdx = M.functionIndex("main");
  int FnIdx = M.functionIndex("fn");
  ASSERT_GE(MainIdx, 0);
  ASSERT_GE(FnIdx, 0);
  EXPECT_DOUBLE_EQ(MF.CallCount[static_cast<unsigned>(MainIdx)], 1.0);
  // fn called ~10 times (loop-depth estimate of the call block).
  EXPECT_DOUBLE_EQ(MF.CallCount[static_cast<unsigned>(FnIdx)], 10.0);
  // fn's loop block: 10 calls x 10 local iterations.
  EXPECT_DOUBLE_EQ(MF.BlockFreq[static_cast<unsigned>(FnIdx)][1], 100.0);
}

TEST(Frequency, RecursionConvergesWithoutHanging) {
  // Direct recursion: the fixed point must terminate (iteration cap) and
  // produce a finite, capped call count.
  Module M;
  M.EntryFunction = "main";
  Function Rec("rec");
  Rec.Blocks.push_back(makeBlock(
      "entry", {push(1u << LR), cmpImm(R0, 0), bCond(Cond::EQ, "out")}));
  Rec.Blocks.push_back(makeBlock(
      "again", {subImm(R0, R0, 1), bl("rec"), b("out")}));
  Rec.Blocks.push_back(makeBlock("out", {pop(1u << PC)}));
  M.Functions.push_back(Rec);
  Function Main("main");
  Main.Blocks.push_back(makeBlock("entry", {movImm(R0, 3), bl("rec"),
                                            bkpt()}));
  M.Functions.push_back(Main);

  ModuleFrequency MF = estimateModuleFrequency(M);
  int RecIdx = M.functionIndex("rec");
  ASSERT_GE(RecIdx, 0);
  double Count = MF.CallCount[static_cast<unsigned>(RecIdx)];
  EXPECT_GT(Count, 0.0);
  EXPECT_TRUE(std::isfinite(Count));
  EXPECT_LE(Count, 1e12); // the estimator's cap
}

TEST(Frequency, MutualRecursionAlsoConverges) {
  Module M;
  M.EntryFunction = "main";
  auto makeCaller = [](const char *Name, const char *Callee) {
    Function F(Name);
    F.Blocks.push_back(makeBlock(
        "entry", {push(1u << LR), bl(Callee), pop(1u << PC)}));
    return F;
  };
  M.Functions.push_back(makeCaller("ping", "pong"));
  M.Functions.push_back(makeCaller("pong", "ping"));
  Function Main("main");
  Main.Blocks.push_back(makeBlock("entry", {bl("ping"), bkpt()}));
  M.Functions.push_back(Main);

  ModuleFrequency MF = estimateModuleFrequency(M);
  for (double C : MF.CallCount) {
    EXPECT_TRUE(std::isfinite(C));
    EXPECT_LE(C, 1e12);
  }
}

TEST(Frequency, ProfileOverride) {
  Module M = figure2Module();
  std::map<std::string, uint64_t> Counts = {
      {"fn:init", 1}, {"fn:loop", 64}, {"fn:if", 1}, {"fn:return", 1}};
  ModuleFrequency MF = moduleFrequencyFromProfile(M, Counts);
  EXPECT_DOUBLE_EQ(MF.BlockFreq[0][1], 64.0);
  EXPECT_DOUBLE_EQ(MF.BlockFreq[0][3], 0.0); // iftrue never seen
}

TEST(Verifier, AcceptsFigure2) {
  Module M = figure2Module();
  EXPECT_TRUE(moduleIsValid(M)) << verifyModule(M).front();
}

TEST(Verifier, RejectsBadBranchTarget) {
  Module M = figure2Module();
  M.Functions[0].Blocks[3].Instrs.back() = b("nowhere");
  auto Errs = verifyModule(M);
  ASSERT_FALSE(Errs.empty());
  EXPECT_NE(Errs[0].find("nowhere"), std::string::npos);
}

TEST(Verifier, RejectsMidBlockTerminator) {
  Module M = figure2Module();
  M.Functions[0].Blocks[0].Instrs.insert(
      M.Functions[0].Blocks[0].Instrs.begin(), bx(LR));
  EXPECT_FALSE(moduleIsValid(M));
}

TEST(Verifier, RejectsFallthroughOffEnd) {
  Module M = figure2Module();
  M.Functions[0].Blocks.back().Instrs.pop_back(); // drop bx lr
  EXPECT_FALSE(moduleIsValid(M));
}

TEST(Verifier, RejectsDuplicateLabels) {
  Module M = figure2Module();
  M.Functions[0].Blocks[3].Label = "loop";
  EXPECT_FALSE(moduleIsValid(M));
}

TEST(Verifier, RejectsEmptyBlock) {
  Module M = figure2Module();
  M.Functions[0].Blocks.insert(M.Functions[0].Blocks.begin() + 1,
                               BasicBlock("empty"));
  EXPECT_FALSE(moduleIsValid(M));
}

TEST(Verifier, RejectsMissingEntryFunction) {
  Module M = figure2Module();
  M.EntryFunction = "main";
  EXPECT_FALSE(moduleIsValid(M));
}

TEST(Verifier, ScratchDiscipline) {
  Module M = figure2Module();
  M.Functions[0].Blocks[0].Instrs[0] = movImm(R7, 1);
  EXPECT_FALSE(moduleIsValid(M));
  // Library functions may use r7 freely.
  M.Functions[0].Optimizable = false;
  EXPECT_TRUE(moduleIsValid(M));
  // Or the check can be switched off.
  M.Functions[0].Optimizable = true;
  VerifierOptions VO;
  VO.EnforceScratchDiscipline = false;
  EXPECT_TRUE(moduleIsValid(M, VO));
}

TEST(Verifier, ItBlockCoverage) {
  Module M = figure2Module();
  // Well-formed ITE sequence.
  BasicBlock Good("ite");
  Good.Instrs.push_back(cmpImm(R0, 0));
  Good.Instrs.push_back(ite(Cond::EQ));
  Good.Instrs.push_back(withCond(movImm(R1, 1), Cond::EQ));
  Good.Instrs.push_back(withCond(movImm(R1, 2), Cond::NE));
  Good.Instrs.push_back(bx(LR));
  M.Functions[0].Blocks.push_back(Good);
  EXPECT_TRUE(moduleIsValid(M)) << verifyModule(M).front();

  // Wrong second condition.
  M.Functions[0].Blocks.back().Instrs[3] =
      withCond(movImm(R1, 2), Cond::EQ);
  EXPECT_FALSE(moduleIsValid(M));

  // Conditional instruction with no IT block at all.
  M.Functions[0].Blocks.back().Instrs.erase(
      M.Functions[0].Blocks.back().Instrs.begin() + 1);
  EXPECT_FALSE(moduleIsValid(M));
}

TEST(Verifier, BssWithBytesRejected) {
  Module M = figure2Module();
  DataObject D;
  D.Name = "bad";
  D.Sect = DataObject::Section::Bss;
  D.Bytes = {1, 2, 3};
  M.Data.push_back(D);
  EXPECT_FALSE(moduleIsValid(M));
}

TEST(Verifier, RejectsOperandsTheFactoriesAssertAgainst) {
  // A parsed module is built without the build:: factories, so the
  // verifier checks what their asserts would have: one line per rule.
  auto accepts = [](OpKind Kind, int32_t Imm) {
    Module M = figure2Module();
    Instr In;
    In.Kind = Kind;
    In.Regs[1] = SP;
    In.Imm = Imm;
    auto &Entry = M.Functions[0].Blocks[0].Instrs;
    Entry.insert(Entry.begin(), In);
    return moduleIsValid(M);
  };
  EXPECT_FALSE(accepts(OpKind::Push, 0));
  EXPECT_FALSE(accepts(OpKind::Push, 1 << SP));
  EXPECT_FALSE(accepts(OpKind::Push, 1 << PC));
  EXPECT_FALSE(accepts(OpKind::Pop, 0));
  EXPECT_FALSE(accepts(OpKind::Pop, 1 << SP));
  EXPECT_FALSE(accepts(OpKind::Pop, 1 << LR));
  EXPECT_FALSE(accepts(OpKind::LdrhImm, 3));
  EXPECT_FALSE(accepts(OpKind::StrhImm, 3));
  // What the factories allow still verifies.
  EXPECT_TRUE(accepts(OpKind::Push, (1 << R4) | (1 << LR)));
  EXPECT_TRUE(accepts(OpKind::Pop, 1 << R4));
  EXPECT_TRUE(accepts(OpKind::LdrhImm, 4094));
  EXPECT_TRUE(accepts(OpKind::StrhImm, 2));
}
