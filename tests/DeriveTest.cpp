//===- tests/DeriveTest.cpp - derived optimized-image profiles ----------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// The acceptance bar for measuring a placement without simulating it: the
// profile deriveOptimizedProfile builds from the baseline's must equal the
// one a full simulation of the optimized image records, for every
// distinct placement of the BEEBS suite over a tight knob grid, and its
// price must equal direct simulation on every registry device. Every
// precondition the derivation cannot prove must fall back, under its own
// reason, to the simulating path with unchanged results.
//
//===----------------------------------------------------------------------===//

#include "beebs/Beebs.h"
#include "campaign/Campaign.h"
#include "campaign/Report.h"
#include "core/Instrumenter.h"
#include "core/Pipeline.h"
#include "power/DeviceRegistry.h"
#include "sim/ExecutionProfile.h"
#include "sim/ProfileCache.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <set>

using namespace ramloc;
using namespace ramloc::build;

namespace {

Image linkOrFail(const Module &M, const LinkOptions &Opts = {}) {
  LinkResult LR = linkModule(M, Opts);
  EXPECT_TRUE(LR.ok()) << (LR.ok() ? "" : LR.Errors.front());
  return LR.Img;
}

ExecutionProfile profileOf(const Image &Img) {
  ExecutionProfile P;
  RunStats RS = runImageProfiled(Img, SimOptions{}, P);
  EXPECT_TRUE(RS.ok()) << RS.Error;
  EXPECT_TRUE(P.Valid);
  return P;
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

/// Derives \p Opt's profile from \p Base's, checks it against a full
/// simulation of \p Opt, and checks its price on every registry device.
void expectDerivationExact(const Image &Base, const ExecutionProfile &BP,
                           const Image &Opt, const std::string &Context) {
  ExecutionProfile Derived;
  std::string Why;
  ASSERT_TRUE(deriveOptimizedProfile(Base, BP, Opt, Derived, &Why))
      << Context << ": " << Why;
  ExecutionProfile Recorded = profileOf(Opt);
  EXPECT_EQ(Derived, Recorded) << Context;
  EXPECT_NE(Derived.RamLow, 0u) << Context;
  for (const DeviceInfo &D : deviceRegistry()) {
    SimOptions Sim;
    Sim.Timing = D.Timing;
    RunStats Priced;
    ASSERT_TRUE(recostProfile(Opt, Derived, Sim, Priced)) << Context;
    expectStatsEqual(runImage(Opt, Sim), Priced, Context + " on " + D.Name);
  }
}

BasicBlock makeBlock(const std::string &Label, std::vector<Instr> Instrs) {
  BasicBlock BB(Label);
  BB.Instrs = std::move(Instrs);
  return BB;
}

/// Applies \p M with the named "function:label" blocks in RAM.
Module place(const Module &M, const std::set<std::string> &InRam) {
  ModelParams MP = extractParams(M, estimateModuleFrequency(M),
                                 PowerModel::stm32f100());
  Assignment A(MP.numBlocks(), false);
  for (unsigned F = 0; F != M.Functions.size(); ++F)
    for (unsigned B = 0; B != M.Functions[F].Blocks.size(); ++B)
      A[MP.globalIndex(F, B)] =
          InRam.count(M.Functions[F].Name + ":" +
                      M.Functions[F].Blocks[B].Label) != 0;
  return applyPlacement(M, MP, A);
}

/// A single-function module: \p Body, then a block "work" that halts
/// with r0 = 7. Moving "work" to RAM rewrites the jump into it.
Module haltingModule(std::vector<Instr> Body) {
  Module M;
  M.addDataWords("counter", {1});
  Function Main("main");
  Body.push_back(b("work"));
  Main.Blocks.push_back(makeBlock("entry", std::move(Body)));
  Main.Blocks.push_back(makeBlock("work", {movImm(R0, 7), bkpt()}));
  M.Functions.push_back(Main);
  return M;
}

std::string why(const Image &Base, const ExecutionProfile &BP,
                const Image &Opt) {
  ExecutionProfile Out;
  std::string Why;
  EXPECT_FALSE(deriveOptimizedProfile(Base, BP, Opt, Out, &Why));
  return Why;
}

} // namespace

TEST(Derive, MatchesFullSimulationAcrossBeebsAndKnobs) {
  unsigned Images = 0, WithRamCode = 0;
  for (const BeebsInfo &Info : beebsSuite())
    for (OptLevel Level : {OptLevel::O1, OptLevel::O2}) {
      std::string Name =
          std::string(Info.Name) + " " + optLevelName(Level);
      Module M = buildBeebs(Info.Name, Level, 2);
      PipelineOptions PO;
      ExtractedModule EM = extractModule(M, PO, /*NeedBaseline=*/false);
      ASSERT_TRUE(EM.ok()) << Name << ": " << EM.Error;
      Image Base = linkOrFail(M);
      ExecutionProfile BP = profileOf(Base);

      PlacementSolver Solver(EM.MP, PO.Knobs);
      std::set<uint64_t> Seen;
      for (unsigned Rspare : {128u, 256u, 512u, 1024u})
        for (double Xlimit : {1.1, 1.2, 1.5}) {
          ModelKnobs Knobs = PO.Knobs;
          Knobs.RspareBytes = Rspare;
          Knobs.Xlimit = Xlimit;
          Assignment InRam = Solver.solve(Knobs, PO.Solver);
          Image Opt = linkOrFail(applyPlacement(M, EM.MP, InRam));
          if (!Seen.insert(Opt.fingerprint()).second)
            continue;
          ++Images;
          WithRamCode += Opt.Sizes.RamCode > 0;
          expectDerivationExact(Base, BP, Opt,
                                Name + " rspare " + std::to_string(Rspare) +
                                    " xlimit " + std::to_string(Xlimit));
        }
    }
  EXPECT_GE(Images, 60u);
  EXPECT_GE(WithRamCode, 60u);
}

TEST(Derive, CoversEveryRewriteAndAHaltInsideACall) {
  // main calls f(0..7) from a block that ends with the call; f halts on
  // its sixth call, so that call never returns. With f in RAM and main's
  // "next" block too, the placement rewrites the call (ldr r7 + blx),
  // main's fall-through into "next", f's conditional branch to "halt"
  // and f's cbz into "zero".
  Module M;
  Function Main("main");
  Main.Blocks.push_back(makeBlock("entry", {movImm(R4, 0)}));
  Main.Blocks.push_back(makeBlock("loop", {movReg(R0, R4), bl("f")}));
  Main.Blocks.push_back(makeBlock(
      "next", {addImm(R4, R4, 1), cmpImm(R4, 8), bCond(Cond::NE, "loop")}));
  Main.Blocks.push_back(makeBlock("done", {movImm(R0, 0), bkpt()}));
  M.Functions.push_back(Main);
  Function F("f");
  F.Blocks.push_back(
      makeBlock("fentry", {cmpImm(R0, 5), bCond(Cond::EQ, "halt")}));
  F.Blocks.push_back(makeBlock("body", {cbz(R0, "zero")}));
  F.Blocks.push_back(
      makeBlock("nonzero", {setS(addImm(R0, R0, 1)), bx(LR)}));
  F.Blocks.push_back(makeBlock("zero", {cmpImm(R0, 0), bx(LR)}));
  F.Blocks.push_back(makeBlock("halt", {movImm(R0, 42), bkpt()}));
  M.Functions.push_back(F);

  Image Base = linkOrFail(M);
  ExecutionProfile BP = profileOf(Base);
  ASSERT_EQ(BP.ExitCode, 42u);
  Module Opt = place(M, {"main:next", "f:fentry", "f:body", "f:nonzero"});
  Image OptImg = linkOrFail(Opt);
  const std::vector<Instr> &Loop = Opt.Functions[0].Blocks[1].Instrs;
  ASSERT_EQ(Loop.size(), 4u); // mov, ldr r7, blx r7, ldr pc
  EXPECT_TRUE(Loop.back().isLongJump());
  expectDerivationExact(Base, BP, OptImg, "hand-made rewrites");
}

TEST(Derive, APerturbedInstructionIsAShapeFallback) {
  Module M = buildBeebs("crc32", OptLevel::O1, 2);
  PipelineOptions PO;
  PO.Knobs.RspareBytes = 1024;
  PipelineResult PR = optimizeModule(M, PO);
  ASSERT_TRUE(PR.ok()) << PR.Error;
  Image Base = linkOrFail(M);
  ExecutionProfile BP = profileOf(Base);
  Image Opt = linkOrFail(PR.Optimized);
  ExecutionProfile Derived;
  ASSERT_TRUE(deriveOptimizedProfile(Base, BP, Opt, Derived));

  for (PlacedInstr &P : Opt.Instrs)
    if (P.I.Kind == OpKind::MovImm) {
      ++P.I.Imm;
      break;
    }
  EXPECT_EQ(why(Base, BP, Opt), "shape");
}

TEST(Derive, AStackReachingTheNewRamCodeIsARamOverlapFallback) {
  // The stack dips to 4 bytes above .data: free RAM in the baseline, the
  // first word of .ramcode once "work" moves there.
  Module M = haltingModule({ldrLitConst(R1, 8192 - 4), subReg(SP, SP, R1),
                            strImm(R0, SP, 0), addReg(SP, SP, R1)});
  LinkOptions Small;
  Small.StackReserve = 64;
  Image Base = linkOrFail(M, Small);
  ExecutionProfile BP = profileOf(Base);
  EXPECT_EQ(BP.RamLow, Base.RamEnd);
  Image Opt = linkOrFail(place(M, {"main:work"}), Small);
  ASSERT_GT(Opt.RamEnd, Base.RamEnd);
  EXPECT_EQ(why(Base, BP, Opt), "ram-overlap");

  // The same program without the deep stack derives.
  Module Shallow = haltingModule({movImm(R1, 3)});
  Image ShallowBase = linkOrFail(Shallow, Small);
  expectDerivationExact(ShallowBase, profileOf(ShallowBase),
                        linkOrFail(place(Shallow, {"main:work"}), Small),
                        "shallow stack");
}

TEST(Derive, ReadingCodeAsDataIsACodeReadFallback) {
  Module M = haltingModule({ldrLitSym(R1, "main"), ldrImm(R2, R1, 0)});
  Image Base = linkOrFail(M);
  ExecutionProfile BP = profileOf(Base);
  EXPECT_TRUE(BP.ReadsCode);
  Image Opt = linkOrFail(place(M, {"main:work"}));
  EXPECT_EQ(why(Base, BP, Opt), "code-read");

  // Constant data is not code: reading .rodata still derives.
  Module Table = haltingModule({ldrLitSym(R1, "table"), ldrImm(R2, R1, 4)});
  Table.addRodataWords("table", {1, 2, 3});
  Image TableBase = linkOrFail(Table);
  ExecutionProfile TableBP = profileOf(TableBase);
  EXPECT_FALSE(TableBP.ReadsCode);
  expectDerivationExact(TableBase, TableBP,
                        linkOrFail(place(Table, {"main:work"})),
                        "rodata read");
}

TEST(Derive, AProfileWithoutRamLowIsANoMarkFallbackAndStillRecosts) {
  Module M = buildBeebs("crc32", OptLevel::O1, 2);
  Image Base = linkOrFail(M);
  ExecutionProfile BP = profileOf(Base);
  ExecutionProfile Unmarked = BP;
  Unmarked.RamLow = 0; // what a profile persisted without ram_low parses to
  JsonWriter W(/*Pretty=*/false);
  writeExecutionProfile(W, "k", Unmarked);
  ASSERT_EQ(W.str().find("ram_low"), std::string::npos);
  JsonValue V;
  ASSERT_TRUE(JsonValue::parse(W.str(), V));
  ExecutionProfile Parsed;
  std::string Key;
  ASSERT_TRUE(parseExecutionProfile(V, Key, Parsed));
  EXPECT_EQ(Parsed.RamLow, 0u);

  PipelineOptions PO;
  PO.Knobs.RspareBytes = 1024;
  PipelineResult PR = optimizeModule(M, PO);
  ASSERT_TRUE(PR.ok()) << PR.Error;
  EXPECT_EQ(why(Base, Parsed, linkOrFail(PR.Optimized)), "no-mark");

  RunStats FromParsed, FromOriginal;
  ASSERT_TRUE(recostProfile(Base, Parsed, SimOptions{}, FromParsed));
  ASSERT_TRUE(recostProfile(Base, BP, SimOptions{}, FromOriginal));
  expectStatsEqual(FromOriginal, FromParsed, "unmarked profile");
}

TEST(Derive, AnOverBudgetDerivationFallsBackToTheSimulatedRow) {
  // Find a placement that runs longer than its baseline, then cap the
  // budget one cycle under it: the baseline fits, the derived optimized
  // profile does not, and the job row must equal the all-simulated one.
  JobSpec Spec;
  Spec.Level = OptLevel::O1;
  Spec.Repeat = 2;
  Spec.RspareBytes = 1024;
  JobResult Uncapped;
  for (const BeebsInfo &Info : beebsSuite()) {
    Spec.Benchmark = Info.Name;
    Uncapped = runJob(Spec);
    ASSERT_TRUE(Uncapped.ok()) << Info.Name << ": " << Uncapped.Error;
    if (Uncapped.OptCycles > Uncapped.BaseCycles)
      break;
  }
  ASSERT_GT(Uncapped.OptCycles, Uncapped.BaseCycles);

  PipelineOptions Capped;
  Capped.Sim.MaxCycles = Uncapped.OptCycles - 1;
  JobResult Simulated = runJob(Spec, Capped);
  ASSERT_FALSE(Simulated.ok());

  MetricsRegistry &Reg = globalMetrics();
  uint64_t Before = Reg.counterValue("sim.derive_fallback.over-budget");
  uint64_t DerivedBefore = Reg.counterValue("sim.derived");
  ProfileCache Profiles;
  Capped.Profiles = &Profiles;
  JobResult Derived = runJob(Spec, Capped);
  EXPECT_EQ(Reg.counterValue("sim.derive_fallback.over-budget"),
            Before + 1);
  EXPECT_EQ(Reg.counterValue("sim.derived"), DerivedBefore);

  auto row = [](const JobResult &R) {
    JsonWriter W(/*Pretty=*/false);
    writeJobResult(W, R);
    return W.str();
  };
  EXPECT_EQ(row(Derived), row(Simulated));
  EXPECT_EQ(Derived.Error, "optimized run failed: cycle limit exceeded");
}

TEST(Derive, StagedPlacementDerivesWithoutTheCache) {
  // Through the stages: the baseline simulates once, the placement's
  // build derives its profile, and its price is a derived recost that
  // leaves no profile in the cache.
  Module M = buildBeebs("crc32", OptLevel::O1, 2);
  PipelineOptions PO;
  PO.Knobs.RspareBytes = 1024;
  PipelineResult PR = optimizeModule(M, PO);
  ASSERT_TRUE(PR.ok()) << PR.Error;

  ProfileCache Profiles;
  PO.Profiles = &Profiles;
  const MetricsRegistry &Reg = globalMetrics();
  uint64_t FullSims = Reg.counterValue("sim.full_sims");
  uint64_t Recosts = Reg.counterValue("sim.recosts");
  uint64_t Derived = Reg.counterValue("sim.derived");
  ExtractedModule EM = extractModule(M, PO);
  ASSERT_TRUE(EM.ok()) << EM.Error;
  ASSERT_TRUE(EM.Base);
  PlacementBuild B = buildPlacement(M, EM.MP, PR.InRam, PO.Link, &EM.Base);
  ASSERT_TRUE(B.Derived) << B.Fallback;
  PipelineResult Staged = measurePlacement(EM, B, PR.InRam, PR.Solver, PO);
  ASSERT_TRUE(Staged.ok()) << Staged.Error;
  expectStatsEqual(PR.MeasuredOpt.Stats, Staged.MeasuredOpt.Stats,
                   "derived crc32");
  EXPECT_EQ(Reg.counterValue("sim.full_sims") - FullSims, 1u);
  EXPECT_EQ(Reg.counterValue("sim.recosts") - Recosts, 1u);
  EXPECT_EQ(Reg.counterValue("sim.derived") - Derived, 1u);
  EXPECT_EQ(profileSnapshot(Profiles).size(), 1u);
}
