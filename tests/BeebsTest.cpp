//===- tests/BeebsTest.cpp - workload validation -----------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "beebs/Beebs.h"
#include "beebs/MicroBench.h"
#include "core/Pipeline.h"
#include "mir/Verifier.h"

#include <gtest/gtest.h>

using namespace ramloc;

TEST(Beebs, SuiteHasTenBenchmarks) {
  EXPECT_EQ(beebsSuite().size(), 10u);
  // The paper's Figure 5 set.
  const char *Expected[] = {"2dfir",    "blowfish",      "crc32",
                            "cubic",    "dijkstra",      "fdct",
                            "float_matmult", "int_matmult",
                            "rijndael", "sha"};
  for (unsigned I = 0; I != 10; ++I)
    EXPECT_STREQ(beebsSuite()[I].Name, Expected[I]);
}

TEST(Beebs, RepeatScalesWork) {
  Module M1 = buildBeebs("crc32", OptLevel::O1, 1);
  Module M4 = buildBeebs("crc32", OptLevel::O1, 4);
  Measurement R1 = measureModule(M1, PowerModel::stm32f100());
  Measurement R4 = measureModule(M4, PowerModel::stm32f100());
  ASSERT_TRUE(R1.ok() && R4.ok());
  EXPECT_GT(R4.Stats.Cycles, 3 * R1.Stats.Cycles);
  EXPECT_LT(R4.Stats.Cycles, 5 * R1.Stats.Cycles);
}

TEST(Beebs, RepeatChangesChecksumInputs) {
  // Different repeat counts exercise different seeds; checksums differ
  // for most benchmarks (not a strict requirement, but catches kernels
  // that ignore their seed entirely).
  Module M2 = buildBeebs("sha", OptLevel::O1, 2);
  Module M3 = buildBeebs("sha", OptLevel::O1, 3);
  Measurement R2 = measureModule(M2, PowerModel::stm32f100());
  Measurement R3 = measureModule(M3, PowerModel::stm32f100());
  ASSERT_TRUE(R2.ok() && R3.ok());
  EXPECT_NE(R2.Stats.ExitCode, R3.Stats.ExitCode);
}

TEST(Beebs, OptimizationLevelsShrinkOrSpeed) {
  // O1 must be faster than O0 for the register-pressure kernels, and Os
  // must not be larger than O0.
  for (const char *Name : {"int_matmult", "sha", "rijndael"}) {
    Module O0 = buildBeebs(Name, OptLevel::O0, 2);
    Module O1 = buildBeebs(Name, OptLevel::O1, 2);
    Measurement R0 = measureModule(O0, PowerModel::stm32f100());
    Measurement R1 = measureModule(O1, PowerModel::stm32f100());
    ASSERT_TRUE(R0.ok() && R1.ok()) << Name;
    EXPECT_LT(R1.Stats.Cycles, R0.Stats.Cycles) << Name;
    EXPECT_LE(O1.Functions[0].codeSizeBytes(),
              O0.Functions[0].codeSizeBytes())
        << Name;
  }
}

TEST(Beebs, UnrollingReducesCyclesOnMarkedKernels) {
  Module O1 = buildBeebs("int_matmult", OptLevel::O1, 2);
  Module O3 = buildBeebs("int_matmult", OptLevel::O3, 2);
  Measurement R1 = measureModule(O1, PowerModel::stm32f100());
  Measurement R3 = measureModule(O3, PowerModel::stm32f100());
  ASSERT_TRUE(R1.ok() && R3.ok());
  EXPECT_LT(R3.Stats.Cycles, R1.Stats.Cycles);
  // Unrolled code is bigger.
  EXPECT_GT(O3.Functions[0].codeSizeBytes(),
            O1.Functions[0].codeSizeBytes());
}

TEST(Beebs, SoftFloatLibraryIsNotOptimizable) {
  Module M = buildBeebs("float_matmult", OptLevel::O2, 1);
  unsigned LibraryFuncs = 0;
  for (const Function &F : M.Functions)
    if (!F.Optimizable)
      ++LibraryFuncs;
  EXPECT_EQ(LibraryFuncs, 3u); // fp_add32, fp_mul32, fp_div32
}

TEST(Beebs, SoftFloatDominatesFloatBenchmarks) {
  Module M = buildBeebs("cubic", OptLevel::O2, 1);
  Measurement R = measureModule(M, PowerModel::stm32f100());
  ASSERT_TRUE(R.ok());
  // Most executed blocks belong to the library functions.
  uint64_t LibCount = 0, AppCount = 0;
  for (unsigned F = 0; F != M.Functions.size(); ++F) {
    for (uint64_t C : R.Stats.BlockCounts[F]) {
      if (M.Functions[F].Optimizable)
        AppCount += C;
      else
        LibCount += C;
    }
  }
  EXPECT_GT(LibCount, AppCount);
}

// Checksum stability across optimisation levels: the defining
// correctness property of the level-parameterised code generator.
class BeebsChecksum : public ::testing::TestWithParam<int> {};

TEST_P(BeebsChecksum, StableAcrossLevels) {
  const BeebsInfo &Info = beebsSuite()[GetParam()];
  uint32_t Ref = 0;
  uint64_t PrevCycles = 0;
  for (OptLevel L : AllOptLevels) {
    Module M = Info.Build(L, 3);
    ASSERT_TRUE(moduleIsValid(M))
        << Info.Name << " " << optLevelName(L) << ": "
        << verifyModule(M).front();
    Measurement R = measureModule(M, PowerModel::stm32f100());
    ASSERT_TRUE(R.ok()) << Info.Name << " " << optLevelName(L) << ": "
                        << R.Stats.Error;
    EXPECT_NE(R.Stats.ExitCode, 0u)
        << Info.Name << ": degenerate zero checksum";
    if (L == OptLevel::O0) {
      Ref = R.Stats.ExitCode;
      PrevCycles = R.Stats.Cycles;
      EXPECT_GT(PrevCycles, 0u);
    } else {
      EXPECT_EQ(R.Stats.ExitCode, Ref)
          << Info.Name << " at " << optLevelName(L);
      // O0 is the slowest configuration.
      EXPECT_LE(R.Stats.Cycles, PrevCycles) << Info.Name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BeebsChecksum,
                         ::testing::Range(0, 10), [](const auto &Info) {
                           return std::string("B") +
                                  beebsSuite()[Info.param].Name;
                         });

TEST(Micro, AllVariantsRun) {
  for (MicroKind K : AllMicroKinds) {
    for (bool InRam : {false, true}) {
      Module M = buildMicroLoop(K, InRam, 500);
      ASSERT_TRUE(moduleIsValid(M))
          << microKindName(K) << ": " << verifyModule(M).front();
      Measurement R = measureModule(M, PowerModel::stm32f100());
      ASSERT_TRUE(R.ok()) << microKindName(K) << ": " << R.Stats.Error;
      EXPECT_GT(R.Stats.Cycles, 500u * 16u);
    }
  }
}

TEST(Micro, RamPowerLowerExceptFlashLoads) {
  PowerModel PM = PowerModel::stm32f100();
  for (MicroKind K : AllMicroKinds) {
    Measurement Flash =
        measureModule(buildMicroLoop(K, false, 2000), PM);
    Measurement Ram = measureModule(buildMicroLoop(K, true, 2000), PM);
    ASSERT_TRUE(Flash.ok() && Ram.ok());
    if (K == MicroKind::LoadFlash) {
      // Figure 1's last bar: nearly as expensive as flash execution.
      EXPECT_GT(Ram.Energy.AvgMilliWatts,
                0.9 * Flash.Energy.AvgMilliWatts);
    } else {
      EXPECT_LT(Ram.Energy.AvgMilliWatts,
                0.72 * Flash.Energy.AvgMilliWatts)
          << microKindName(K);
    }
  }
}

TEST(Micro, BranchVariantChainsSixteenBlocks) {
  Module M = buildMicroLoop(MicroKind::Branch, false, 10);
  // 16 branch blocks + entry + latch + done.
  EXPECT_GE(M.Functions[0].Blocks.size(), 18u);
}
