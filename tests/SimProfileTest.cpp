//===- tests/SimProfileTest.cpp - execute/recost equivalence -----------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// The acceptance bar for the simulate-once/cost-many split: RunStats
// derived by recosting a shared ExecutionProfile must equal direct
// simulation on EVERY counter, for every registry device (wait-stated
// parts included), across the whole BEEBS suite; pricing every step on its
// own must add up to the same totals; plus round-trip checks for the
// predecoded dispatch table and the profile serialization.
//
//===----------------------------------------------------------------------===//

#include "beebs/Beebs.h"
#include "core/Pipeline.h"
#include "power/DeviceRegistry.h"
#include "sim/ExecutionProfile.h"
#include "sim/Predecode.h"
#include "sim/ProfileCache.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace ramloc;

namespace {

/// Growth of the global sim.* counters since construction: how the
/// runs in between were satisfied.
struct SimCounts {
  uint64_t FullSims0 = value("sim.full_sims");
  uint64_t Recosts0 = value("sim.recosts");

  static uint64_t value(const char *Name) {
    return globalMetrics().counterValue(Name);
  }
  uint64_t fullSims() const { return value("sim.full_sims") - FullSims0; }
  uint64_t recosts() const { return value("sim.recosts") - Recosts0; }
};

Image linkBeebs(const std::string &Name, OptLevel Level = OptLevel::O1,
                unsigned Repeat = 2) {
  Module M = buildBeebs(Name, Level, Repeat);
  LinkResult LR = linkModule(M, {});
  EXPECT_TRUE(LR.ok()) << Name;
  return LR.Img;
}

/// Every RunStats counter, compared field by field so a divergence names
/// the counter that broke.
void expectStatsEqual(const RunStats &A, const RunStats &B,
                      const std::string &Context) {
  EXPECT_EQ(A.Cycles, B.Cycles) << Context;
  EXPECT_EQ(A.Instructions, B.Instructions) << Context;
  for (unsigned F = 0; F != 2; ++F)
    for (unsigned C = 0; C != 7; ++C)
      EXPECT_EQ(A.ClassCycles[F][C], B.ClassCycles[F][C])
          << Context << " ClassCycles[" << F << "][" << C << "]";
  for (unsigned F = 0; F != 2; ++F)
    for (unsigned D = 0; D != 2; ++D)
      EXPECT_EQ(A.LoadCycles[F][D], B.LoadCycles[F][D])
          << Context << " LoadCycles[" << F << "][" << D << "]";
  EXPECT_EQ(A.ContentionStalls, B.ContentionStalls) << Context;
  EXPECT_EQ(A.FlashWaitCycles, B.FlashWaitCycles) << Context;
  EXPECT_EQ(A.SleepEvents, B.SleepEvents) << Context;
  EXPECT_EQ(A.BlockCounts, B.BlockCounts) << Context;
  EXPECT_EQ(A.ExitCode, B.ExitCode) << Context;
  EXPECT_EQ(A.Error, B.Error) << Context;
  EXPECT_EQ(A.HitCycleLimit, B.HitCycleLimit) << Context;
}

} // namespace

TEST(ExecutionProfile, RecostMatchesDirectSimulationAcrossSuiteAndDevices) {
  for (const BeebsInfo &Info : beebsSuite()) {
    Image Img = linkBeebs(Info.Name);

    // Collect the profile under the reference device...
    ExecutionProfile Profile;
    SimOptions RefSim;
    RunStats RefStats = runImageProfiled(Img, RefSim, Profile);
    ASSERT_TRUE(RefStats.ok()) << Info.Name;
    ASSERT_TRUE(Profile.Valid) << Info.Name;

    // ...and recost it for every registry device, wait-stated parts
    // included: bit-for-bit equality with direct simulation.
    for (const DeviceInfo &D : deviceRegistry()) {
      SimOptions Sim;
      Sim.Timing = D.Timing;
      RunStats Direct = runImage(Img, Sim);
      RunStats Recost;
      ASSERT_TRUE(recostProfile(Img, Profile, Sim, Recost))
          << Info.Name << " on " << D.Name;
      expectStatsEqual(Direct, Recost,
                       std::string(Info.Name) + " on " + D.Name);
    }
  }
}

TEST(ExecutionProfile, ProfileIsDeviceIndependent) {
  // The whole premise: which instructions execute does not depend on the
  // timing model, so a profile collected on a wait-stated part equals
  // one collected on the reference part.
  Image Img = linkBeebs("crc32");
  ExecutionProfile RefProfile, WaitedProfile;
  SimOptions RefSim;
  SimOptions WaitedSim;
  WaitedSim.Timing = findDevice("stm32f103-72mhz")->Timing;
  ASSERT_EQ(WaitedSim.Timing.FlashWaitStates, 2u);

  RunStats RefStats = runImageProfiled(Img, RefSim, RefProfile);
  RunStats WaitedStats = runImageProfiled(Img, WaitedSim, WaitedProfile);
  ASSERT_TRUE(RefStats.ok());
  ASSERT_TRUE(WaitedStats.ok());
  EXPECT_GT(WaitedStats.Cycles, RefStats.Cycles);
  EXPECT_EQ(RefProfile, WaitedProfile);
}

TEST(ExecutionProfile, ProfiledRunMatchesPlainRun) {
  Image Img = linkBeebs("int_matmult");
  SimOptions Sim;
  Sim.Timing = findDevice("stm32f100-2ws")->Timing;
  ExecutionProfile Profile;
  RunStats A = runImageProfiled(Img, Sim, Profile);
  RunStats B = runImage(Img, Sim);
  expectStatsEqual(A, B, "int_matmult profiled vs plain");
}

TEST(ExecutionProfile, RecostCoversOptimizedImagesWithRamCode) {
  // Optimized binaries execute from both memories and exercise the
  // contention path; the recost must track the placement exactly.
  Module M = buildBeebs("crc32", OptLevel::O1, 2);
  PipelineOptions PO;
  PO.Knobs.RspareBytes = 1024;
  PipelineResult PR = optimizeModule(M, PO);
  ASSERT_TRUE(PR.ok()) << PR.Error;
  ASSERT_FALSE(PR.MovedBlocks.empty());
  LinkResult LR = linkModule(PR.Optimized, {});
  ASSERT_TRUE(LR.ok());

  ExecutionProfile Profile;
  SimOptions RefSim;
  (void)runImageProfiled(LR.Img, RefSim, Profile);
  ASSERT_TRUE(Profile.Valid);
  for (const DeviceInfo &D : deviceRegistry()) {
    SimOptions Sim;
    Sim.Timing = D.Timing;
    RunStats Direct = runImage(LR.Img, Sim);
    EXPECT_GT(Direct.fetchCycles(MemKind::Ram), 0u);
    RunStats Recost;
    ASSERT_TRUE(recostProfile(LR.Img, Profile, Sim, Recost)) << D.Name;
    expectStatsEqual(Direct, Recost, "optimized crc32 on " + D.Name);
  }
}

TEST(ExecutionProfile, SampledRunsPriceEachStepLikeTheRecost) {
  // runImageSampled prices every step on its own as it executes; runImage
  // prices the finished profile in one pass. The per-step totals must
  // equal the one-pass price, and the samples must partition the run
  // (the startup copy aside, which samples exclude).
  for (const BeebsInfo &Info : beebsSuite()) {
    Image Img = linkBeebs(Info.Name);
    for (const DeviceInfo &D : deviceRegistry()) {
      std::string Context = std::string(Info.Name) + " on " + D.Name;
      SimOptions Sim;
      Sim.Timing = D.Timing;
      RunStats Whole = runImage(Img, Sim);
      ASSERT_TRUE(Whole.ok()) << Context;
      std::vector<PowerSample> Samples;
      RunStats Stepped =
          runImageSampled(Img, Sim, Whole.Cycles / 32 + 1, Samples);
      expectStatsEqual(Whole, Stepped, Context);

      PowerSample Sum;
      Sum.Cycles = Img.StartupCopyCycles;
      Sum.ClassCycles[0][static_cast<unsigned>(InstrClass::Load)] =
          Img.StartupCopyCycles;
      Sum.LoadCycles[0][0] = Img.StartupCopyCycles;
      for (const PowerSample &S : Samples) {
        Sum.Cycles += S.Cycles;
        for (unsigned F = 0; F != 2; ++F) {
          for (unsigned C = 0; C != 7; ++C)
            Sum.ClassCycles[F][C] += S.ClassCycles[F][C];
          for (unsigned M = 0; M != 2; ++M)
            Sum.LoadCycles[F][M] += S.LoadCycles[F][M];
        }
      }
      EXPECT_GE(Samples.size(), 16u) << Context;
      EXPECT_EQ(Sum.Cycles, Whole.Cycles) << Context;
      for (unsigned F = 0; F != 2; ++F) {
        for (unsigned C = 0; C != 7; ++C)
          EXPECT_EQ(Sum.ClassCycles[F][C], Whole.ClassCycles[F][C])
              << Context << " ClassCycles[" << F << "][" << C << "]";
        for (unsigned M = 0; M != 2; ++M)
          EXPECT_EQ(Sum.LoadCycles[F][M], Whole.LoadCycles[F][M])
              << Context << " LoadCycles[" << F << "][" << M << "]";
      }
    }
  }
}

TEST(ExecutionProfile, CycleBudgetIsOneRuleForRunAndRecost) {
  // A priced total above MaxCycles fails the same way whether the run was
  // simulated or recost; at exactly the run's cost both succeed.
  Image Img = linkBeebs("crc32");
  ExecutionProfile Profile;
  RunStats Stats = runImageProfiled(Img, SimOptions{}, Profile);
  ASSERT_TRUE(Stats.ok());
  for (uint64_t Budget : {Stats.Cycles - 1, Stats.Cycles}) {
    std::string Context = "budget " + std::to_string(Budget);
    bool Over = Budget < Stats.Cycles;
    SimOptions Sim;
    Sim.MaxCycles = Budget;
    RunStats Run = runImage(Img, Sim);
    EXPECT_EQ(Run.HitCycleLimit, Over) << Context;
    EXPECT_EQ(Run.Error, Over ? "cycle limit exceeded" : "") << Context;
    RunStats Recost;
    ASSERT_TRUE(recostProfile(Img, Profile, Sim, Recost)) << Context;
    expectStatsEqual(Run, Recost, Context);
  }
}

TEST(ExecutionProfile, InvalidProfilesAreNeverRecost) {
  Image Img = linkBeebs("crc32");
  ExecutionProfile Profile;
  SimOptions Starved;
  Starved.MaxCycles = 100; // aborts mid-run
  RunStats Stats = runImageProfiled(Img, Starved, Profile);
  EXPECT_TRUE(Stats.HitCycleLimit);
  EXPECT_FALSE(Profile.Valid);
  RunStats Out;
  EXPECT_FALSE(recostProfile(Img, Profile, SimOptions{}, Out));
}

TEST(ExecutionProfile, ExecutionKeySeparatesImagesAndArguments) {
  Image A = linkBeebs("crc32");
  Image B = linkBeebs("sha");
  EXPECT_NE(A.fingerprint(), B.fingerprint());
  EXPECT_NE(executionKey(A), executionKey(B));
  EXPECT_NE(executionKey(A, 1), executionKey(A, 2));
  EXPECT_EQ(executionKey(A), executionKey(A));

  Image A2 = linkBeebs("crc32");
  EXPECT_EQ(A.fingerprint(), A2.fingerprint());
}

TEST(ExecutionProfile, BaselineExecutionKeysArePinned) {
  // Stored profiles are keyed by these strings: a change to
  // Image::fingerprint, the linker's layout or the key's format that
  // moves them makes every store cold-start, and must be deliberate.
  EXPECT_EQ(executionKey(linkBeebs("sha", OptLevel::O1, /*Repeat=*/0)),
            "10d4bfd3b9036bec:00000000:00000000:00000000");
  EXPECT_EQ(executionKey(linkBeebs("cubic", OptLevel::O2, /*Repeat=*/0)),
            "ed1aaa2c8dfb56c3:00000000:00000000:00000000");
}

TEST(ExecutionProfile, BaselineProfilesArePinned) {
  // What each BEEBS baseline's run records, at the default repeat count:
  // the step count, the exit code and an FNV-1a hash of its profile-store
  // line. A simulator change that moves any of them changes what every
  // store holds and every report prices, and must be deliberate.
  struct Pin {
    const char *Name;
    OptLevel Level;
    uint64_t Instructions;
    uint32_t ExitCode;
    uint64_t LineHash;
  };
  const Pin Pins[] = {
      {"2dfir", OptLevel::O1, 402077, 0x00000500, 0xccce5a74b9d3338fULL},
      {"2dfir", OptLevel::O2, 402077, 0x00000500, 0xccce5a74b9d3338fULL},
      {"blowfish", OptLevel::O1, 655205, 0xdb1c887c, 0xb8ff6b978edf7b7aULL},
      {"blowfish", OptLevel::O2, 655205, 0xdb1c887c, 0xb8ff6b978edf7b7aULL},
      {"crc32", OptLevel::O1, 644505, 0xfa4dd73a, 0xf3debfdfa5c8d5cfULL},
      {"crc32", OptLevel::O2, 580505, 0xfa4dd73a, 0x1e3b28eae1b81e5cULL},
      {"cubic", OptLevel::O1, 3403455, 0x3fa7271b, 0x576ce3fe77da371aULL},
      {"cubic", OptLevel::O2, 3403455, 0x3fa7271b, 0x576ce3fe77da371aULL},
      {"dijkstra", OptLevel::O1, 622059, 0x0000005f, 0x5e968e1814b15c1fULL},
      {"dijkstra", OptLevel::O2, 622059, 0x0000005f, 0x5e968e1814b15c1fULL},
      {"fdct", OptLevel::O1, 1079255, 0xffffca00, 0x4e134544b6b2fda6ULL},
      {"fdct", OptLevel::O2, 1079255, 0xffffca00, 0x4e134544b6b2fda6ULL},
      {"float_matmult", OptLevel::O1, 1066295, 0xbf65a4b3,
       0x0afbf775f592d98bULL},
      {"float_matmult", OptLevel::O2, 1066295, 0xbf65a4b3,
       0x0afbf775f592d98bULL},
      {"int_matmult", OptLevel::O1, 427005, 0xa1cd64b3, 0x07d71e00d2a9e938ULL},
      {"int_matmult", OptLevel::O2, 386045, 0xa1cd64b3, 0xd1ca8a015786d6fdULL},
      {"rijndael", OptLevel::O1, 381965, 0xea4718ef, 0x210e7f5e1bc091faULL},
      {"rijndael", OptLevel::O2, 381965, 0xea4718ef, 0x210e7f5e1bc091faULL},
      {"sha", OptLevel::O1, 1164525, 0xb533cd97, 0x12e7be4f77024436ULL},
      {"sha", OptLevel::O2, 1164525, 0xb533cd97, 0x12e7be4f77024436ULL},
  };
  ASSERT_EQ(std::size(Pins), 2 * beebsSuite().size());
  for (const Pin &P : Pins) {
    std::string Context =
        std::string(P.Name) + " " + optLevelName(P.Level);
    Image Img = linkBeebs(P.Name, P.Level, /*Repeat=*/0);
    ExecutionProfile Profile;
    RunStats Stats = runImageProfiled(Img, SimOptions{}, Profile);
    ASSERT_TRUE(Stats.ok()) << Context << ": " << Stats.Error;
    EXPECT_EQ(Profile.Instructions, P.Instructions) << Context;
    EXPECT_EQ(Profile.ExitCode, P.ExitCode) << Context;
    JsonWriter W(/*Pretty=*/false);
    writeExecutionProfile(W, executionKey(Img), Profile);
    EXPECT_EQ(fnv1a64(W.str()), P.LineHash) << Context;
  }
}

TEST(ExecutionProfile, SerializationRoundTripsExactly) {
  Image Img = linkBeebs("2dfir");
  ExecutionProfile Profile;
  SimOptions Sim;
  (void)runImageProfiled(Img, Sim, Profile);
  ASSERT_TRUE(Profile.Valid);
  std::string Key = executionKey(Img);

  JsonWriter W(/*Pretty=*/false);
  writeExecutionProfile(W, Key, Profile);
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(W.str(), V, &Error)) << Error;
  ExecutionProfile Back;
  std::string BackKey;
  ASSERT_TRUE(parseExecutionProfile(V, BackKey, Back));
  EXPECT_EQ(BackKey, Key);
  EXPECT_NE(Profile.RamLow, 0u);
  EXPECT_EQ(Back, Profile);

  // The derivation marks are optional keys: an unknown RamLow is not
  // written and parses back as unknown; a code read round-trips.
  for (bool ReadsCode : {false, true}) {
    ExecutionProfile Variant = Profile;
    Variant.RamLow = 0;
    Variant.ReadsCode = ReadsCode;
    JsonWriter VW(/*Pretty=*/false);
    writeExecutionProfile(VW, Key, Variant);
    EXPECT_EQ(VW.str().find("ram_low"), std::string::npos);
    EXPECT_EQ(VW.str().find("reads_code") != std::string::npos, ReadsCode);
    JsonValue VV;
    ASSERT_TRUE(JsonValue::parse(VW.str(), VV, &Error)) << Error;
    ExecutionProfile VariantBack;
    ASSERT_TRUE(parseExecutionProfile(VV, BackKey, VariantBack));
    EXPECT_EQ(VariantBack, Variant);
  }

  // And the parsed profile recosts identically to the original.
  for (const DeviceInfo &D : deviceRegistry()) {
    SimOptions DevSim;
    DevSim.Timing = D.Timing;
    RunStats FromOriginal, FromParsed;
    ASSERT_TRUE(recostProfile(Img, Profile, DevSim, FromOriginal));
    ASSERT_TRUE(recostProfile(Img, Back, DevSim, FromParsed));
    expectStatsEqual(FromOriginal, FromParsed, "parsed profile " + D.Name);
  }
}

TEST(Predecode, RoundTripsAgainstTheRawInstructionStream) {
  // Predecode every BEEBS image plus an optimized one (code in both
  // memories) and check every pre-resolved field against the placed
  // instruction: the copied operands and the successor indices.
  std::vector<Image> Images;
  for (const BeebsInfo &Info : beebsSuite())
    for (OptLevel Level : {OptLevel::O1, OptLevel::O2})
      Images.push_back(linkBeebs(Info.Name, Level));
  Module M = buildBeebs("crc32", OptLevel::O1, 2);
  PipelineOptions PO;
  PO.Knobs.RspareBytes = 1024;
  PipelineResult PR = optimizeModule(M, PO);
  ASSERT_TRUE(PR.ok()) << PR.Error;
  LinkResult LR = linkModule(PR.Optimized, {});
  ASSERT_TRUE(LR.ok());
  Images.push_back(LR.Img);

  auto indexAt = [](const Image &Img, uint32_t Addr) {
    int Idx = Img.instrIndexAt(Addr);
    return Idx < 0 ? NoInstrIdx : static_cast<uint32_t>(Idx);
  };
  for (const Image &Img : Images) {
    DecodedImage Dec = predecodeImage(Img);
    ASSERT_EQ(Dec.size(), Img.Instrs.size());
    for (size_t I = 0; I != Dec.size(); ++I) {
      const DecodedInstr &D = Dec[I];
      const PlacedInstr &P = Img.Instrs[I];
      EXPECT_EQ(D.Kind, P.I.Kind);
      EXPECT_EQ(D.CondCode, P.I.CondCode);
      for (unsigned Op = 0; Op != 4; ++Op)
        EXPECT_EQ(D.Regs[Op], P.I.Regs[Op]) << "instr " << I << " reg " << Op;
      EXPECT_EQ(D.Imm, P.I.Imm);
      EXPECT_EQ(D.SetsFlags, P.I.SetsFlags);
      EXPECT_EQ(D.NextAddr, P.Addr + P.Size);
      EXPECT_EQ(D.TargetAddr, P.TargetAddr);
      EXPECT_EQ(D.NextIdx, indexAt(Img, D.NextAddr));
      EXPECT_EQ(D.TargetIdx, indexAt(Img, D.TargetAddr));
      EXPECT_EQ(D.CheckCond, P.I.CondCode != Cond::AL &&
                                 P.I.Kind != OpKind::BCond);
    }
  }
}

TEST(ProfileCache, ComputeOnceUnderConcurrency) {
  ProfileCache Cache;
  std::atomic<unsigned> Owners{0};
  std::atomic<unsigned> Recipients{0};
  auto Payload = std::make_shared<ExecutionProfile>();
  Payload->Valid = true;

  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != 8; ++I)
    Threads.emplace_back([&] {
      bool Owner = false;
      std::shared_ptr<const ExecutionProfile> P =
          Cache.acquire("key", Owner);
      if (Owner) {
        ++Owners;
        Cache.publish("key", Payload);
      } else {
        EXPECT_EQ(P, Payload);
        ++Recipients;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Owners.load(), 1u);
  EXPECT_EQ(Recipients.load(), 7u);
  EXPECT_EQ(profileSnapshot(Cache).size(), 1u);
}

TEST(ProfileCache, MeasureModuleSharesOneSimulationAcrossDevices) {
  Module M = buildBeebs("crc32", OptLevel::O1, 2);
  ProfileCache Profiles;
  SimCounts Counts;
  for (const DeviceInfo &D : deviceRegistry()) {
    SimOptions Sim;
    Sim.Timing = D.Timing;
    Measurement Got = measureModule(M, D.Model, {}, Sim, &Profiles);
    ASSERT_TRUE(Got.ok()) << D.Name;
    Measurement Direct = measureModule(M, D.Model, {}, Sim);
    expectStatsEqual(Direct.Stats, Got.Stats, D.Name);
    // Energy integration over identical integers is bit-identical.
    EXPECT_EQ(Direct.Energy.MilliJoules, Got.Energy.MilliJoules)
        << D.Name;
    EXPECT_EQ(Direct.Energy.Seconds, Got.Energy.Seconds) << D.Name;
    EXPECT_EQ(Direct.Energy.AvgMilliWatts, Got.Energy.AvgMilliWatts)
        << D.Name;
  }
  // The registry counts every run, cached or not: the cached ones cost
  // one simulation and a recost per other device, and each direct
  // reference run is a full simulation of its own.
  EXPECT_EQ(Counts.fullSims(), 1 + deviceRegistry().size());
  EXPECT_EQ(Counts.recosts(), deviceRegistry().size() - 1);
}

TEST(ProfileCache, OverBudgetDeviceIsPricedNotResimulated) {
  // A budget the fast device meets exactly and the slow (wait-stated) one
  // exceeds: in either device order the slow device fails by pricing the
  // shared profile, so the pair costs one simulation and one recost.
  Module M = buildBeebs("crc32", OptLevel::O1, 2);
  const DeviceInfo *Fast = findDevice("stm32f100");
  const DeviceInfo *Slow = findDevice("stm32f103-72mhz");
  ASSERT_TRUE(Fast && Slow);
  SimOptions FastSim;
  FastSim.Timing = Fast->Timing;
  Measurement Uncapped = measureModule(M, Fast->Model, {}, FastSim);
  ASSERT_TRUE(Uncapped.ok());

  for (bool FastFirst : {true, false}) {
    std::string Context = FastFirst ? "fast first" : "slow first";
    ProfileCache Profiles;
    SimCounts Counts;
    auto measure = [&](const DeviceInfo *D) {
      SimOptions Sim;
      Sim.Timing = D->Timing;
      Sim.MaxCycles = Uncapped.Stats.Cycles;
      return measureModule(M, D->Model, {}, Sim, &Profiles);
    };
    Measurement First = measure(FastFirst ? Fast : Slow);
    Measurement Second = measure(FastFirst ? Slow : Fast);
    const Measurement &GotFast = FastFirst ? First : Second;
    const Measurement &GotSlow = FastFirst ? Second : First;

    EXPECT_TRUE(GotSlow.Stats.HitCycleLimit) << Context;
    EXPECT_EQ(GotSlow.Stats.Error, "cycle limit exceeded") << Context;
    ASSERT_TRUE(GotFast.ok()) << Context << ": " << GotFast.Stats.Error;
    expectStatsEqual(Uncapped.Stats, GotFast.Stats, Context);
    EXPECT_EQ(Counts.fullSims(), 1u) << Context;
    EXPECT_EQ(Counts.recosts(), 1u) << Context;
  }
}
