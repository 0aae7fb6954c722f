//===- tests/SimTimingTest.cpp - cycle accounting ---------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "layout/Linker.h"
#include "power/PowerModel.h"
#include "sim/ExecutionProfile.h"

#include <gtest/gtest.h>

using namespace ramloc;
using namespace ramloc::build;

namespace {

/// Builds a module with one function whose single block can be homed in
/// either memory; the block body loads count times from `buf` (RAM) or
/// `tab` (flash).
Module loadLoopModule(bool CodeInRam, bool DataInRam) {
  Module M;
  M.EntryFunction = "t";
  M.addBss("buf", 16);
  M.addRodataWords("tab", {1, 2, 3, 4});
  Function F("t");
  BasicBlock Pre("entry");
  Pre.Instrs = {ldrLitSym(R1, DataInRam ? "buf" : "tab")};
  if (CodeInRam)
    Pre.Instrs.push_back(ldrLitSym(PC, "body"));
  F.Blocks.push_back(Pre);
  BasicBlock Body("body");
  Body.Home = CodeInRam ? MemKind::Ram : MemKind::Flash;
  for (int I = 0; I != 10; ++I)
    Body.Instrs.push_back(ldrImm(R0, R1, 0));
  if (CodeInRam) {
    Body.Instrs.push_back(ldrLitSym(PC, "fin"));
  } else {
    Body.Instrs.push_back(b("fin"));
  }
  F.Blocks.push_back(Body);
  BasicBlock Fin("fin");
  Fin.Instrs = {bkpt()};
  F.Blocks.push_back(Fin);
  M.Functions.push_back(F);
  return M;
}

RunStats runTiming(const Module &M) {
  LinkResult LR = linkModule(M);
  EXPECT_TRUE(LR.ok()) << (LR.Errors.empty() ? "" : LR.Errors.front());
  SimOptions SO;
  SO.IncludeStartupCopy = false;
  return runImage(LR.Img, SO);
}

} // namespace

TEST(SimTiming, StraightLineCycleCount) {
  // mov(1) + add(1) + bkpt(1) = 3 cycles.
  Module M;
  M.EntryFunction = "t";
  Function F("t");
  BasicBlock A("entry");
  A.Instrs = {movImm(R0, 1), addImm(R0, R0, 1), bkpt()};
  F.Blocks.push_back(A);
  M.Functions.push_back(F);
  RunStats S = runTiming(M);
  EXPECT_EQ(S.Cycles, 3u);
  EXPECT_EQ(S.Instructions, 3u);
}

TEST(SimTiming, TakenVsNotTakenBranch) {
  // Not-taken bcc costs 1; taken costs 3.
  Module M;
  M.EntryFunction = "t";
  Function F("t");
  BasicBlock A("entry");
  A.Instrs = {cmpImm(R0, 1), bCond(Cond::EQ, "target")}; // r0=0: not taken
  BasicBlock B2("next");
  B2.Instrs = {bkpt()};
  BasicBlock C("target");
  C.Instrs = {bkpt()};
  F.Blocks = {A, B2, C};
  M.Functions.push_back(F);
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok());
  SimOptions SO;
  SO.IncludeStartupCopy = false;
  RunStats NotTaken = runImage(LR.Img, SO, /*r0=*/0);
  RunStats Taken = runImage(LR.Img, SO, /*r0=*/1);
  // cmp(1) + bcc(1 or 3) + bkpt(1).
  EXPECT_EQ(NotTaken.Cycles, 3u);
  EXPECT_EQ(Taken.Cycles, 5u);
}

TEST(SimTiming, RamContentionOnlyWhenBothSidesRam) {
  // 10 loads in each configuration; stalls only for RAM code + RAM data.
  RunStats FlashFlash = runTiming(loadLoopModule(false, false));
  RunStats FlashRam = runTiming(loadLoopModule(false, true));
  RunStats RamFlash = runTiming(loadLoopModule(true, false));
  RunStats RamRam = runTiming(loadLoopModule(true, true));
  ASSERT_TRUE(FlashFlash.ok() && FlashRam.ok() && RamFlash.ok() &&
              RamRam.ok());
  EXPECT_EQ(FlashFlash.ContentionStalls, 0u);
  EXPECT_EQ(FlashRam.ContentionStalls, 0u);
  // RAM-homed code pays one extra stall for the `ldr pc, =fin` long jump,
  // whose literal pool word lives in RAM alongside the code.
  EXPECT_EQ(RamFlash.ContentionStalls, 1u);
  EXPECT_EQ(RamRam.ContentionStalls, 11u);
  // The stalls show up as extra cycles relative to the RAM/flash run.
  EXPECT_EQ(RamRam.Cycles, RamFlash.Cycles + 10u);
}

TEST(SimTiming, FetchAttributionByRegion) {
  RunStats RamRun = runTiming(loadLoopModule(true, true));
  ASSERT_TRUE(RamRun.ok());
  // The body (loads) ran from RAM; entry and fin from flash.
  EXPECT_GT(RamRun.fetchCycles(MemKind::Ram), 20u);
  EXPECT_GT(RamRun.fetchCycles(MemKind::Flash), 0u);
  // Load cycles split by data region: all body loads were RAM-data.
  EXPECT_GT(RamRun.LoadCycles[1][1], 0u);
  EXPECT_EQ(RamRun.LoadCycles[0][1], 0u);
}

TEST(SimTiming, StartupCopyAccounted) {
  Module M = loadLoopModule(true, true);
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok());
  SimOptions WithCopy;
  SimOptions NoCopy;
  NoCopy.IncludeStartupCopy = false;
  RunStats A = runImage(LR.Img, WithCopy);
  RunStats B2 = runImage(LR.Img, NoCopy);
  EXPECT_EQ(A.Cycles, B2.Cycles + LR.Img.StartupCopyCycles);
}

TEST(SimTiming, ProfileMapKeys) {
  Module M = loadLoopModule(false, false);
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok());
  RunStats S = runImage(LR.Img);
  auto Prof = S.profileMap(M);
  EXPECT_EQ(Prof.at("t:entry"), 1u);
  EXPECT_EQ(Prof.at("t:body"), 1u);
  EXPECT_EQ(Prof.at("t:fin"), 1u);
}

TEST(PowerModel, Figure1Shape) {
  PowerModel PM = PowerModel::stm32f100();
  // RAM fetch cheaper than flash for every class...
  for (unsigned C = 0; C != 7; ++C) {
    if (C == static_cast<unsigned>(InstrClass::Load))
      continue;
    EXPECT_LT(PM.MilliWatts[1][C], PM.MilliWatts[0][C])
        << instrClassName(static_cast<InstrClass>(C));
  }
  // ...except the RAM-code/flash-data load, which is nearly flash-priced
  // (Figure 1, last bar).
  EXPECT_LT(PM.LoadMilliWatts[1][1], PM.LoadMilliWatts[0][0]);
  EXPECT_GT(PM.LoadMilliWatts[1][0], PM.LoadMilliWatts[1][1] * 1.5);
  EXPECT_GT(PM.eFlash(), PM.eRam());
  EXPECT_NEAR(PM.eRam() / PM.eFlash(), 0.58, 0.08);
}

TEST(PowerModel, IntegrationMatchesHandComputation) {
  PowerModel PM = PowerModel::stm32f100();
  RunStats S;
  S.Cycles = 24000; // 1 ms at 24 MHz
  S.ClassCycles[0][static_cast<unsigned>(InstrClass::Alu)] = 24000;
  EnergyReport R = PM.integrate(S);
  EXPECT_DOUBLE_EQ(R.Seconds, 0.001);
  EXPECT_NEAR(R.MilliJoules, 15.0 * 0.001, 1e-9);
  EXPECT_NEAR(R.AvgMilliWatts, 15.0, 1e-9);
  EXPECT_DOUBLE_EQ(R.RamMilliJoules, 0.0);
}

TEST(PowerModel, LoadDataRegionPricing) {
  PowerModel PM = PowerModel::stm32f100();
  RunStats S;
  S.Cycles = 1000;
  S.ClassCycles[1][static_cast<unsigned>(InstrClass::Load)] = 1000;
  S.LoadCycles[1][0] = 1000; // RAM code loading flash data
  EnergyReport R = PM.integrate(S);
  EXPECT_NEAR(R.AvgMilliWatts, 15.8, 1e-9);
}

TEST(PowerModel, SleepExtension) {
  EnergyReport R;
  R.MilliJoules = 10.0;
  R.Seconds = 1.0;
  // 10 mJ active + 3.5 mW * 2 s sleep.
  EXPECT_DOUBLE_EQ(R.totalWithSleep(2.0, 3.5), 17.0);
}
