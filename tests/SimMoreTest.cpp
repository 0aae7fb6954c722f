//===- tests/SimMoreTest.cpp - simulator edge cases ----------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "layout/Linker.h"
#include "power/PowerModel.h"
#include "sim/ExecutionProfile.h"
#include "sim/Simulator.h"

#include <gtest/gtest.h>

using namespace ramloc;
using namespace ramloc::build;

namespace {

Image linkSnippet(std::vector<Instr> Body, Module Extra = {}) {
  Module M = std::move(Extra);
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

} // namespace

TEST(SimMore, SdivOverflowClamp) {
  // INT_MIN / -1 saturates to INT_MIN (ARM semantics).
  Image Img = linkSnippet({
      ldrLitConst(R1, static_cast<int32_t>(0x80000000)),
      ldrLitConst(R2, -1),
      sdiv(R0, R1, R2),
  });
  SimOptions SO;
  SO.IncludeStartupCopy = false;
  RunStats S = runImage(Img, SO);
  ASSERT_TRUE(S.ok()) << S.Error;
  EXPECT_EQ(S.ExitCode, 0x80000000u);
}

TEST(SimMore, BlxCallsThroughRegister) {
  Module Extra;
  Extra.EntryFunction = "t";
  Function G("callee");
  BasicBlock GB("entry");
  GB.Instrs = {movImm(R0, 99), bx(LR)};
  G.Blocks.push_back(GB);
  Extra.Functions.push_back(G);
  Image Img = linkSnippet(
      {
          ldrLitSym(R4, "callee"),
          blx(R4),
      },
      std::move(Extra));
  RunStats S = runImage(Img);
  ASSERT_TRUE(S.ok()) << S.Error;
  EXPECT_EQ(S.ExitCode, 99u);
}

TEST(SimMore, SkippedConditionalHasNoEffectAndOneCycle) {
  Image Img = linkSnippet({
      movImm(R0, 5),
      cmpImm(R0, 5), // Z = 1
      it(Cond::NE),
      withCond(movImm(R0, 77), Cond::NE), // skipped
  });
  SimOptions SO;
  SO.IncludeStartupCopy = false;
  RunStats S = runImage(Img, SO);
  ASSERT_TRUE(S.ok()) << S.Error;
  EXPECT_EQ(S.ExitCode, 5u);
  // mov(1) + cmp(1) + it(1) + skipped(1) + bkpt(1).
  EXPECT_EQ(S.Cycles, 5u);
}

TEST(SimMore, SkippedLoadDoesNotTouchMemoryOrFault) {
  // A predicated load from a bogus address must not fault when skipped.
  Image Img = linkSnippet({
      ldrLitConst(R1, 0x40000000), // unmapped
      movImm(R0, 1),
      cmpImm(R0, 1),
      it(Cond::NE),
      withCond(ldrImm(R2, R1, 0), Cond::NE), // skipped
  });
  RunStats S = runImage(Img);
  EXPECT_TRUE(S.ok()) << S.Error;
}

TEST(SimMore, UnalignedWordAccessWorks) {
  // The M3 supports unaligned word loads; our byte-wise memory does too.
  Module Extra;
  Extra.addBss("buf", 16);
  Image Img = linkSnippet(
      {
          ldrLitSym(R1, "buf"),
          ldrLitConst(R2, 0x11223344),
          strImm(R2, R1, 1), // unaligned store
          ldrImm(R0, R1, 1), // unaligned load back
      },
      std::move(Extra));
  RunStats S = runImage(Img);
  ASSERT_TRUE(S.ok()) << S.Error;
  EXPECT_EQ(S.ExitCode, 0x11223344u);
}

TEST(SimMore, StackGrowsDownFromTop) {
  Image Img = linkSnippet({
      movReg(R0, SP),
  });
  ExecutionProfile Profile;
  Simulator Sim(Img, Profile);
  EXPECT_EQ(Sim.state().R[SP], Img.Map.stackTop());
  Sim.run();
  EXPECT_TRUE(Profile.Valid);
  EXPECT_EQ(Profile.ExitCode, Img.Map.stackTop());
}

TEST(SimMore, PopReturnToExitHalts) {
  // push {lr}; pop {pc} with lr = ExitAddress ends the run cleanly.
  Image Img = linkSnippet({
      movImm(R0, 42),
      push(1u << LR),
      pop(1u << PC),
  });
  RunStats S = runImage(Img);
  ASSERT_TRUE(S.ok()) << S.Error;
  EXPECT_EQ(S.ExitCode, 42u);
}

TEST(SimMore, MlaAndExtendedArithmetic) {
  Image Img = linkSnippet({
      movImm(R1, 1000),
      movImm(R2, 1000),
      movImm(R3, 7),
      mla(R0, R1, R2, R3),
  });
  RunStats S = runImage(Img);
  EXPECT_EQ(S.ExitCode, 1000007u);
}

TEST(SimMore, DeviceVariationPerturbsEnergyNotCycles) {
  Module Extra;
  Extra.addBss("buf", 16);
  Image Img = linkSnippet(
      {
          ldrLitSym(R1, "buf"),
          ldrImm(R2, R1, 0),
          strImm(R2, R1, 4),
      },
      std::move(Extra));
  RunStats S = runImage(Img);
  ASSERT_TRUE(S.ok());

  PowerModel Nominal = PowerModel::stm32f100();
  PowerModel BoardA = Nominal.withDeviceVariation(1);
  PowerModel BoardB = Nominal.withDeviceVariation(2);
  EnergyReport EN = Nominal.integrate(S);
  EnergyReport EA = BoardA.integrate(S);
  EnergyReport EB = BoardB.integrate(S);
  // Same cycles, different joules; deterministic per seed.
  EXPECT_DOUBLE_EQ(EN.Seconds, EA.Seconds);
  EXPECT_NE(EA.MilliJoules, EB.MilliJoules);
  EXPECT_NE(EA.MilliJoules, EN.MilliJoules);
  EXPECT_DOUBLE_EQ(BoardA.integrate(S).MilliJoules, EA.MilliJoules);
  // Bounded perturbation: within 8%.
  EXPECT_NEAR(EA.MilliJoules, EN.MilliJoules,
              0.085 * EN.MilliJoules);
}

TEST(SimMore, PowerSamplingCoversAllCycles) {
  Module Extra;
  Extra.addBss("buf", 16);
  std::vector<Instr> Body;
  Body.push_back(ldrLitSym(R1, "buf"));
  for (int I = 0; I != 50; ++I)
    Body.push_back(ldrImm(R2, R1, 0));
  Image Img = linkSnippet(std::move(Body), std::move(Extra));
  SimOptions SO;
  SO.IncludeStartupCopy = false;
  std::vector<PowerSample> Samples;
  RunStats S = runImageSampled(Img, SO, 10, Samples);
  ASSERT_TRUE(S.ok()) << S.Error;
  ASSERT_FALSE(Samples.empty());
  uint64_t SampleTotal = 0;
  for (const PowerSample &Sample : Samples)
    SampleTotal += Sample.Cycles;
  EXPECT_EQ(SampleTotal, S.Cycles);
  // Every full interval reaches the threshold.
  for (unsigned I = 0; I + 1 < Samples.size(); ++I)
    EXPECT_GE(Samples[I].Cycles, 10u);
}

TEST(SimMore, SampledPowerMatchesOverallAverage) {
  Module Extra;
  Extra.addBss("buf", 16);
  std::vector<Instr> Body;
  Body.push_back(ldrLitSym(R1, "buf"));
  for (int I = 0; I != 30; ++I)
    Body.push_back(addReg(R2, R2, R1));
  Image Img = linkSnippet(std::move(Body), std::move(Extra));
  SimOptions SO;
  SO.IncludeStartupCopy = false;
  std::vector<PowerSample> Samples;
  RunStats S = runImageSampled(Img, SO, 8, Samples);
  ASSERT_TRUE(S.ok());
  PowerModel PM = PowerModel::stm32f100();
  EnergyReport R = PM.integrate(S);
  // Cycle-weighted mean of the sample powers equals the run average.
  double WeightedSum = 0;
  for (const PowerSample &Sample : Samples)
    WeightedSum +=
        PM.averageMilliWatts(Sample) * static_cast<double>(Sample.Cycles);
  EXPECT_NEAR(WeightedSum / static_cast<double>(S.Cycles),
              R.AvgMilliWatts, 1e-9);
}

TEST(SimMore, ZeroVariationIsIdentity) {
  PowerModel Nominal = PowerModel::stm32f100();
  PowerModel Same = Nominal.withDeviceVariation(7, 0.0);
  for (unsigned F = 0; F != 2; ++F)
    for (unsigned C = 0; C != 7; ++C)
      EXPECT_DOUBLE_EQ(Same.MilliWatts[F][C], Nominal.MilliWatts[F][C]);
}
