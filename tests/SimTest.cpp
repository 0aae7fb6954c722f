//===- tests/SimTest.cpp - simulator semantics -----------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "beebs/Beebs.h"
#include "layout/Linker.h"
#include "sim/ExecutionProfile.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace ramloc;
using namespace ramloc::build;

namespace {

/// Wraps a single block of instructions (ending in bkpt) into a runnable
/// image.
Image linkSnippet(std::vector<Instr> Body, Module *Extra = nullptr) {
  Module M = Extra ? *Extra : Module();
  M.EntryFunction = "t";
  Function F("t");
  BasicBlock BB("entry");
  BB.Instrs = std::move(Body);
  if (BB.Instrs.empty() || !BB.Instrs.back().isTerminator())
    BB.Instrs.push_back(bkpt());
  F.Blocks.push_back(BB);
  M.Functions.insert(M.Functions.begin(), F);
  LinkResult LR = linkModule(M);
  EXPECT_TRUE(LR.ok()) << (LR.Errors.empty() ? "" : LR.Errors.front());
  return LR.Img;
}

/// Links and executes a snippet; returns the final stats. r0..r2
/// preloadable.
RunStats runSnippet(std::vector<Instr> Body, uint32_t R0V = 0,
                    uint32_t R1V = 0, uint32_t R2V = 0,
                    Module *Extra = nullptr) {
  SimOptions SO;
  SO.IncludeStartupCopy = false;
  return runImage(linkSnippet(std::move(Body), Extra), SO, R0V, R1V, R2V);
}

uint32_t exitOf(std::vector<Instr> Body, uint32_t R0V = 0,
                uint32_t R1V = 0, uint32_t R2V = 0) {
  RunStats S = runSnippet(std::move(Body), R0V, R1V, R2V);
  EXPECT_TRUE(S.ok()) << S.Error;
  return S.ExitCode;
}

} // namespace

TEST(Sim, MovAndArithmetic) {
  EXPECT_EQ(exitOf({movImm(R0, 42)}), 42u);
  EXPECT_EQ(exitOf({movImm(R1, 7), movReg(R0, R1)}), 7u);
  EXPECT_EQ(exitOf({movImm(R0, 5), addImm(R0, R0, 3)}), 8u);
  EXPECT_EQ(exitOf({movImm(R0, 5), subImm(R0, R0, 7)}), 0xFFFFFFFEu);
  EXPECT_EQ(exitOf({movImm(R1, 6), movImm(R2, 7), mul(R0, R1, R2)}), 42u);
  EXPECT_EQ(exitOf({movImm(R1, 5), rsb(R0, R1, 0)}, 0),
            static_cast<uint32_t>(-5));
  EXPECT_EQ(exitOf({movImm(R1, 6), movImm(R2, 7), movImm(R3, 100),
                    mla(R0, R1, R2, R3)}),
            142u);
}

TEST(Sim, Division) {
  EXPECT_EQ(exitOf({movImm(R1, 42), movImm(R2, 5), udiv(R0, R1, R2)}), 8u);
  EXPECT_EQ(exitOf({movImm(R1, 42), movImm(R2, 0), udiv(R0, R1, R2)}), 0u);
  // Signed: -42 / 5 = -8 (trunc toward zero).
  EXPECT_EQ(exitOf({movImm(R1, 42), rsb(R1, R1, 0), movImm(R2, 5),
                    sdiv(R0, R1, R2)}),
            static_cast<uint32_t>(-8));
}

TEST(Sim, Logical) {
  EXPECT_EQ(exitOf({movImm(R1, 0xF0), movImm(R2, 0x3C),
                    andReg(R0, R1, R2)}),
            0x30u);
  EXPECT_EQ(exitOf({movImm(R1, 0xF0), movImm(R2, 0x0F),
                    orrReg(R0, R1, R2)}),
            0xFFu);
  EXPECT_EQ(exitOf({movImm(R1, 0xFF), movImm(R2, 0x0F),
                    eorReg(R0, R1, R2)}),
            0xF0u);
  EXPECT_EQ(exitOf({movImm(R1, 0xFF), movImm(R2, 0x0F),
                    bicReg(R0, R1, R2)}),
            0xF0u);
  EXPECT_EQ(exitOf({movImm(R1, 0), mvn(R0, R1)}), 0xFFFFFFFFu);
}

TEST(Sim, Shifts) {
  EXPECT_EQ(exitOf({movImm(R1, 1), lslImm(R0, R1, 31)}), 0x80000000u);
  EXPECT_EQ(exitOf({ldrLitConst(R1, -16), asrImm(R0, R1, 2)}),
            static_cast<uint32_t>(-4));
  EXPECT_EQ(exitOf({ldrLitConst(R1, 0x80000000), lsrImm(R0, R1, 31)}), 1u);
  EXPECT_EQ(exitOf({movImm(R1, 0xF0), movImm(R2, 4), lsrReg(R0, R1, R2)}),
            0x0Fu);
  EXPECT_EQ(exitOf({movImm(R1, 1), movImm(R2, 40), lslReg(R0, R1, R2)}),
            0u); // shift >= 32 clears
  EXPECT_EQ(exitOf({movImm(R1, 0x81), movImm(R2, 8), rorReg(R0, R1, R2)}),
            0x81000000u);
}

TEST(Sim, Extensions) {
  EXPECT_EQ(exitOf({ldrLitConst(R1, 0x1234FF80), uxtb(R0, R1)}), 0x80u);
  EXPECT_EQ(exitOf({ldrLitConst(R1, 0x1234FF80), sxtb(R0, R1)}),
            0xFFFFFF80u);
  EXPECT_EQ(exitOf({ldrLitConst(R1, 0x1234FF80), uxth(R0, R1)}),
            0xFF80u);
  EXPECT_EQ(exitOf({ldrLitConst(R1, 0x12348000), sxth(R0, R1)}),
            0xFFFF8000u);
}

TEST(Sim, FlagsAndConditionalBranch) {
  // Count down from 3: loop body runs 3 times.
  Module M;
  M.EntryFunction = "t";
  Function F("t");
  BasicBlock A("entry");
  A.Instrs = {movImm(R0, 0), movImm(R1, 3)};
  BasicBlock L("loop");
  L.Instrs = {addImm(R0, R0, 10), setS(subImm(R1, R1, 1)),
              bCond(Cond::NE, "loop")};
  BasicBlock D("done");
  D.Instrs = {bkpt()};
  F.Blocks = {A, L, D};
  M.Functions.push_back(F);
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok());
  RunStats S = runImage(LR.Img);
  EXPECT_EQ(S.ExitCode, 30u);
  EXPECT_EQ(S.BlockCounts[0][1], 3u);
}

TEST(Sim, SignedUnsignedConditions) {
  // -1 < 1 signed (LT) but -1 > 1 unsigned (HI).
  std::vector<Instr> Signed = {
      movImm(R1, 1),          rsb(R2, R1, 0), // r2 = -1
      cmpReg(R2, R1),         ite(Cond::LT),
      withCond(movImm(R0, 1), Cond::LT),
      withCond(movImm(R0, 2), Cond::GE),
  };
  EXPECT_EQ(exitOf(Signed), 1u);
  std::vector<Instr> Unsigned = {
      movImm(R1, 1),          rsb(R2, R1, 0),
      cmpReg(R2, R1),         ite(Cond::HI),
      withCond(movImm(R0, 1), Cond::HI),
      withCond(movImm(R0, 2), Cond::LS),
  };
  EXPECT_EQ(exitOf(Unsigned), 1u);
}

TEST(Sim, AdcSbcCarryChain) {
  // 0xFFFFFFFF + 1 sets carry; adc adds it through.
  std::vector<Instr> Body = {
      ldrLitConst(R1, static_cast<int32_t>(0xFFFFFFFF)),
      movImm(R2, 1),
      setS(addReg(R3, R1, R2)), // r3 = 0, C = 1
      movImm(R1, 0),
      movImm(R2, 0),
      adc(R0, R1, R2), // r0 = 0 + 0 + C = 1
  };
  EXPECT_EQ(exitOf(Body), 1u);
}

TEST(Sim, CbzCbnz) {
  Module M;
  M.EntryFunction = "t";
  Function F("t");
  BasicBlock A("entry");
  A.Instrs = {cbz(R0, "zero")};
  BasicBlock B2("nonzero");
  B2.Instrs = {movImm(R0, 2), bkpt()};
  BasicBlock C("zero");
  C.Instrs = {movImm(R0, 1), bkpt()};
  F.Blocks = {A, B2, C};
  M.Functions.push_back(F);
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok());
  EXPECT_EQ(runImage(LR.Img, {}, 0).ExitCode, 1u);
  EXPECT_EQ(runImage(LR.Img, {}, 7).ExitCode, 2u);
}

TEST(Sim, MemoryAccess) {
  Module Extra;
  Extra.addBss("buf", 64);
  std::vector<Instr> Body = {
      ldrLitSym(R1, "buf"),
      ldrLitConst(R2, 0x11223344),
      strImm(R2, R1, 0),
      ldrbImm(R0, R1, 1), // little-endian byte 1 = 0x33
  };
  RunStats S = runSnippet(Body, 0, 0, 0, &Extra);
  ASSERT_TRUE(S.ok()) << S.Error;
  EXPECT_EQ(S.ExitCode, 0x33u);
}

TEST(Sim, ByteAndHalfwordAccess) {
  Module Extra;
  Extra.addBss("buf", 64);
  std::vector<Instr> Body = {
      ldrLitSym(R1, "buf"),   movImm(R2, 0xAB), strbImm(R2, R1, 5),
      ldrLitConst(R2, 0xBEEF), strhImm(R2, R1, 8), ldrhImm(R3, R1, 8),
      ldrbImm(R0, R1, 5),     addReg(R0, R0, R3),
  };
  RunStats S = runSnippet(Body, 0, 0, 0, &Extra);
  ASSERT_TRUE(S.ok()) << S.Error;
  EXPECT_EQ(S.ExitCode, 0xAB + 0xBEEFu);
}

TEST(Sim, IndexedAddressing) {
  Module Extra;
  Extra.addRodataWords("tab", {10, 20, 30, 40});
  std::vector<Instr> Body = {
      ldrLitSym(R1, "tab"), movImm(R2, 8), ldrReg(R0, R1, R2),
  };
  RunStats S = runSnippet(Body, 0, 0, 0, &Extra);
  ASSERT_TRUE(S.ok()) << S.Error;
  EXPECT_EQ(S.ExitCode, 30u);
}

TEST(Sim, PushPopRoundTrip) {
  std::vector<Instr> Body = {
      movImm(R4, 11), movImm(R5, 22),
      push((1u << R4) | (1u << R5)),
      movImm(R4, 0),  movImm(R5, 0),
      pop((1u << R4) | (1u << R5)),
      addReg(R0, R4, R5),
  };
  EXPECT_EQ(exitOf(Body), 33u);
}

TEST(Sim, CallAndReturn) {
  Module M;
  M.EntryFunction = "main";
  Function Main("main");
  BasicBlock MB("entry");
  MB.Instrs = {movImm(R0, 20), bl("double_it"), bkpt()};
  Main.Blocks.push_back(MB);
  Function Callee("double_it");
  BasicBlock CB("entry");
  CB.Instrs = {addReg(R0, R0, R0), bx(LR)};
  Callee.Blocks.push_back(CB);
  M.Functions = {Main, Callee};
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok());
  RunStats S = runImage(LR.Img);
  ASSERT_TRUE(S.ok()) << S.Error;
  EXPECT_EQ(S.ExitCode, 40u);
}

TEST(Sim, NestedCallsWithLinkRegisterSave) {
  Module M;
  M.EntryFunction = "main";
  Function Main("main");
  BasicBlock MB("entry");
  MB.Instrs = {movImm(R0, 1), bl("outer"), bkpt()};
  Main.Blocks.push_back(MB);
  Function Outer("outer");
  BasicBlock OB("entry");
  OB.Instrs = {push(1u << LR), bl("inner"), addImm(R0, R0, 100),
               pop(1u << PC)};
  Outer.Blocks.push_back(OB);
  Function Inner("inner");
  BasicBlock IB("entry");
  IB.Instrs = {addImm(R0, R0, 10), bx(LR)};
  Inner.Blocks.push_back(IB);
  M.Functions = {Main, Outer, Inner};
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok());
  RunStats S = runImage(LR.Img);
  ASSERT_TRUE(S.ok()) << S.Error;
  EXPECT_EQ(S.ExitCode, 111u);
}

TEST(Sim, LongJumpViaLdrPc) {
  Module M;
  M.EntryFunction = "t";
  Function F("t");
  BasicBlock A("entry");
  A.Instrs = {movImm(R0, 5), ldrLitSym(PC, "far")};
  BasicBlock Skip("skipped");
  Skip.Instrs = {movImm(R0, 99), bkpt()};
  BasicBlock Far("far");
  Far.Instrs = {addImm(R0, R0, 1), bkpt()};
  F.Blocks = {A, Skip, Far};
  M.Functions.push_back(F);
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok());
  RunStats S = runImage(LR.Img);
  EXPECT_EQ(S.ExitCode, 6u);
  EXPECT_EQ(S.BlockCounts[0][1], 0u); // skipped never executes
}

/// The address of the first instruction of kind \p K in \p Img.
uint32_t addrOfFirst(const Image &Img, OpKind K) {
  for (const PlacedInstr &P : Img.Instrs)
    if (P.I.Kind == K)
      return P.Addr;
  ADD_FAILURE() << "no " << opMnemonic(K) << " in the image";
  return 0;
}

std::string accessFaultText(const char *What, uint32_t Addr, uint32_t Pc) {
  char Text[64];
  std::snprintf(Text, sizeof(Text), "%s fault at 0x%08x (pc=0x%08x)", What,
                Addr, Pc);
  return Text;
}

TEST(Sim, Faults) {
  // Each message names the faulting address and the faulting
  // instruction's own address. First, a write to flash.
  Module Extra;
  Extra.addRodataWords("tab", {1});
  Image Img = linkSnippet({ldrLitSym(R1, "tab"), strImm(R0, R1, 0)}, &Extra);
  RunStats S = runImage(Img);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.Error, accessFaultText("write", Img.SymbolAddr.at("tab"),
                                     addrOfFirst(Img, OpKind::StrImm)));

  // Read unmapped memory.
  Img = linkSnippet({ldrLitConst(R1, 0x40000000), ldrImm(R0, R1, 0)});
  S = runImage(Img);
  EXPECT_FALSE(S.ok());
  EXPECT_EQ(S.Error, accessFaultText("read", 0x40000000,
                                     addrOfFirst(Img, OpKind::LdrImm)));

  // A push that runs off the top of RAM: two words land, the next two
  // fault, and the message names the first of them.
  Img = linkSnippet({push(0xF), movImm(R0, 1)});
  ExecutionProfile Profile;
  Simulator Sim(Img, Profile);
  uint32_t Top = Img.Map.stackTop();
  Sim.state().R[SP] = Top + 8;
  Sim.run();
  EXPECT_TRUE(Sim.halted());
  EXPECT_FALSE(Profile.Valid);
  EXPECT_EQ(Sim.error(),
            accessFaultText("write", Top, addrOfFirst(Img, OpKind::Push)));
  EXPECT_EQ(Sim.state().R[SP], Top - 8);
  EXPECT_EQ(Profile.Instructions, 1u);
}

/// Runs \p Img twice, by run() and one step() at a time, from the entry
/// state with sp at \p Sp (0: the stack top), and expects the two to agree
/// on everything a caller can observe.
void expectSteppingMatchesRun(const Image &Img, const std::string &Context,
                              uint64_t MaxSteps = UINT64_MAX,
                              uint32_t Sp = 0) {
  ExecutionProfile Ran, Stepped;
  Simulator Runner(Img, Ran, MaxSteps), Stepper(Img, Stepped, MaxSteps);
  if (Sp) {
    Runner.state().R[SP] = Sp;
    Stepper.state().R[SP] = Sp;
  }
  Runner.run();
  // Each step that returns true executed exactly one instruction.
  for (uint64_t N = 1; Stepper.step(); ++N)
    ASSERT_EQ(Stepped.Instructions, N) << Context;
  EXPECT_FALSE(Stepper.step()) << Context;
  EXPECT_EQ(Stepped, Ran) << Context;
  EXPECT_EQ(Stepper.state(), Runner.state()) << Context;
  EXPECT_EQ(Stepper.halted(), Runner.halted()) << Context;
  EXPECT_EQ(Stepper.error(), Runner.error()) << Context;
  EXPECT_EQ(Stepper.lastIndex(), Runner.lastIndex()) << Context;
}

TEST(Sim, SteppingMatchesRun) {
  for (const BeebsInfo &Info : beebsSuite())
    for (OptLevel Level : {OptLevel::O1, OptLevel::O2}) {
      LinkResult LR = linkModule(buildBeebs(Info.Name, Level, 2));
      ASSERT_TRUE(LR.ok()) << Info.Name;
      expectSteppingMatchesRun(LR.Img, std::string(Info.Name) + " " +
                                           optLevelName(Level));
    }

  Image ReadFault =
      linkSnippet({ldrLitConst(R1, 0x40000000), ldrImm(R0, R1, 0)});
  expectSteppingMatchesRun(ReadFault, "read fault");

  Image Push = linkSnippet({push(0xF), movImm(R0, 1)});
  expectSteppingMatchesRun(Push, "write fault in push", UINT64_MAX,
                           Push.Map.stackTop() + 8);

  Module M;
  M.EntryFunction = "t";
  Function F("t");
  BasicBlock Spin("spin");
  Spin.Instrs = {addImm(R0, R0, 1), b("spin")};
  F.Blocks.push_back(Spin);
  M.Functions.push_back(F);
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok());
  expectSteppingMatchesRun(LR.Img, "capped spin loop", /*MaxSteps=*/1001);
}

TEST(Sim, FetchFaultsNameTheAddress) {
  // Falling off the end of the code, and a computed jump to data: both
  // fetch where no instruction starts.
  Module M;
  M.EntryFunction = "t";
  M.addRodataWords("tab", {1});
  Function F("t");
  BasicBlock BB("entry");
  BB.Instrs = {movImm(R0, 1)};
  F.Blocks.push_back(BB);
  M.Functions.push_back(F);
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok());
  const PlacedInstr &Last = LR.Img.Instrs.back();
  char Want[64];
  std::snprintf(Want, sizeof(Want), "fetch fault at 0x%08x",
                Last.Addr + Last.Size);
  EXPECT_EQ(runImage(LR.Img).Error, Want);

  M.Functions[0].Blocks[0].Instrs = {ldrLitSym(R1, "tab"), bx(R1)};
  LR = linkModule(M);
  ASSERT_TRUE(LR.ok());
  std::snprintf(Want, sizeof(Want), "fetch fault at 0x%08x",
                LR.Img.SymbolAddr.at("tab"));
  EXPECT_EQ(runImage(LR.Img).Error, Want);
}

TEST(Sim, CycleLimit) {
  Module M;
  M.EntryFunction = "t";
  Function F("t");
  BasicBlock A("spin");
  A.Instrs = {b("spin")};
  F.Blocks.push_back(A);
  M.Functions.push_back(F);
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok());
  SimOptions SO;
  SO.MaxCycles = 1000;
  RunStats S = runImage(LR.Img, SO);
  EXPECT_FALSE(S.ok());
  EXPECT_TRUE(S.HitCycleLimit);
}

TEST(Sim, WfiCountsSleepEvents) {
  RunStats S = runSnippet({wfi(), wfi(), movImm(R0, 1)});
  ASSERT_TRUE(S.ok());
  EXPECT_EQ(S.SleepEvents, 2u);
}
