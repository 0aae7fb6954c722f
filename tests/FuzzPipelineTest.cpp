//===- tests/FuzzPipelineTest.cpp - randomized differential testing -----------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// Generates random (but always-terminating) programs through the code
// generator, runs the full optimization pipeline under random budgets,
// and checks the system-wide invariants:
//
//   1. the transformed program computes the same result (differential
//      correctness against the unoptimized binary);
//   2. the RAM budget is never exceeded;
//   3. the transformed module passes the verifier and the linker's
//      cross-memory range checks;
//   4. the solver never makes the model-estimated energy worse than the
//      all-flash baseline.
//
//===----------------------------------------------------------------------===//

#include "beebs/Codegen.h"
#include "core/Pipeline.h"
#include "mir/Verifier.h"
#include "support/Format.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace ramloc;

namespace {

/// Emits a random straight-line computation over the given vars.
void emitRandomOps(FuncBuilder &B, SplitMix64 &Rng, std::vector<Var> &Vars,
                   Var Buf, unsigned Count) {
  for (unsigned I = 0; I != Count; ++I) {
    Var D = Vars[Rng.nextBelow(Vars.size())];
    Var A = Vars[Rng.nextBelow(Vars.size())];
    Var C = Vars[Rng.nextBelow(Vars.size())];
    switch (Rng.nextBelow(9)) {
    case 0:
      B.op(BinOp::Add, D, A, C);
      break;
    case 1:
      B.op(BinOp::Sub, D, A, C);
      break;
    case 2:
      B.op(BinOp::Mul, D, A, C);
      break;
    case 3:
      B.op(BinOp::Eor, D, A, C);
      break;
    case 4:
      B.op(BinOp::Orr, D, A, C);
      break;
    case 5:
      B.opImm(BinOp::Lsl, D, A,
              static_cast<int32_t>(Rng.nextBelow(7)));
      break;
    case 6:
      B.opImm(BinOp::Lsr, D, A,
              1 + static_cast<int32_t>(Rng.nextBelow(8)));
      break;
    case 7: { // bounded load from the shared buffer
      B.opImm(BinOp::And, D, A, 63);
      B.loadWIdx(D, Buf, D);
      break;
    }
    case 8: { // bounded store to the shared buffer
      B.opImm(BinOp::And, D, A, 63);
      B.storeWIdx(C, Buf, D);
      break;
    }
    }
  }
}

/// Builds a random module: `Funcs` leaf-ish functions (function i may
/// call j > i), each with a bounded loop, plus a main that accumulates a
/// checksum. Always terminates: every loop is a counted countdown.
Module randomModule(uint64_t Seed, OptLevel L) {
  SplitMix64 Rng(Seed);
  Module M;
  M.Name = "fuzz";
  M.addBss("fuzz_buf", 64 * 4);

  unsigned Funcs = 2 + static_cast<unsigned>(Rng.nextBelow(3));
  for (unsigned F = Funcs; F-- > 0;) {
    FuncBuilder B(M, formatString("f%u", F), L);
    Var Arg = B.param("arg");
    std::vector<Var> Vars{Arg};
    unsigned Locals = 2 + static_cast<unsigned>(Rng.nextBelow(6));
    for (unsigned V = 0; V != Locals; ++V)
      Vars.push_back(B.local(formatString("v%u", V)));
    Var Cnt = B.local("cnt");
    Var Buf = B.local("buf");
    B.prologue();

    B.addrOf(Buf, "fuzz_buf");
    for (unsigned V = 1; V != Vars.size(); ++V)
      B.setImm(Vars[V], static_cast<uint32_t>(Rng.nextBelow(1000)));
    B.setImm(Cnt, 2 + static_cast<uint32_t>(Rng.nextBelow(6)));

    B.block("loop");
    emitRandomOps(B, Rng, Vars, Buf,
                  3 + static_cast<unsigned>(Rng.nextBelow(10)));
    // Occasionally call a later function (acyclic call graph).
    if (F + 1 < Funcs && Rng.nextBool(0.7)) {
      Var ArgV = Vars[Rng.nextBelow(Vars.size())];
      B.callInto(Vars[1], formatString("f%u", F + 1), {ArgV});
    }
    B.opImm(BinOp::Sub, Cnt, Cnt, 1);
    B.brCmpImm(CmpOp::Ne, Cnt, 0, "loop");

    B.block("tail");
    if (Rng.nextBool()) {
      // A data-dependent diamond for CFG variety.
      B.brCmpImm(CmpOp::SLt, Vars[1], 500, "low");
      B.block("high");
      B.opImm(BinOp::Add, Vars[1], Vars[1], 3);
      B.br("join");
      B.block("low");
      B.opImm(BinOp::Eor, Vars[1], Vars[1], 1);
      B.block("join");
    }
    B.op(BinOp::Eor, Vars[1], Vars[1], Arg);
    B.retVar(Vars[1]);
    B.finish();
  }

  // main: checksum = xor over f0(i) for a few i.
  FuncBuilder B(M, "main", L);
  Var Cnt = B.local("cnt");
  Var Sum = B.local("sum");
  Var Tmp = B.local("tmp");
  B.prologue();
  B.setImm(Sum, 0);
  B.setImm(Cnt, 3);
  B.block("repeat");
  B.callInto(Tmp, "f0", {Cnt});
  B.op(BinOp::Eor, Sum, Sum, Tmp);
  B.op(BinOp::Add, Sum, Sum, Cnt);
  B.opImm(BinOp::Sub, Cnt, Cnt, 1);
  B.brCmpImm(CmpOp::Ne, Cnt, 0, "repeat");
  B.block("done");
  B.haltWith(Sum);
  B.finish();
  M.EntryFunction = "main";
  return M;
}

} // namespace

class FuzzPipeline : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPipeline, InvariantsHoldOnRandomPrograms) {
  uint64_t Seed = static_cast<uint64_t>(GetParam());
  SplitMix64 Rng(Seed ^ 0xABCDEF);
  OptLevel L = AllOptLevels[Rng.nextBelow(5)];
  Module M = randomModule(Seed * 1337 + 11, L);

  ASSERT_TRUE(moduleIsValid(M)) << verifyModule(M).front();

  PipelineOptions Opts;
  Opts.Knobs.RspareBytes =
      static_cast<unsigned>(Rng.nextBelow(600));
  Opts.Knobs.Xlimit = 1.0 + Rng.nextDouble();
  Opts.UseProfiledFrequencies = Rng.nextBool(0.3);

  PipelineResult R = optimizeModule(M, Opts);
  ASSERT_TRUE(R.ok()) << "seed " << Seed << " level " << optLevelName(L)
                      << ": " << R.Error;

  // 1. Differential correctness (optimizeModule already cross-checks the
  // exit codes; assert it explicitly anyway).
  EXPECT_EQ(R.MeasuredBase.Stats.ExitCode, R.MeasuredOpt.Stats.ExitCode);

  // 2. Budgets.
  EXPECT_LE(R.PredictedOpt.RamBytes, Opts.Knobs.RspareBytes);
  EXPECT_LE(R.PredictedOpt.Cycles,
            Opts.Knobs.Xlimit * R.PredictedBase.Cycles + 1e-6);

  // 3. The transformed module is well-formed.
  EXPECT_TRUE(moduleIsValid(R.Optimized))
      << verifyModule(R.Optimized).front();

  // 4. The solver never regresses the model estimate.
  EXPECT_LE(R.PredictedOpt.EnergyMilliJoules,
            R.PredictedBase.EnergyMilliJoules + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FuzzPipeline, ::testing::Range(0, 40));
