//===- tests/CodegenTest.cpp - benchmark code generator ------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "beebs/Codegen.h"
#include "core/Pipeline.h"
#include "mir/Verifier.h"
#include "support/Format.h"

#include <gtest/gtest.h>

using namespace ramloc;

namespace {

/// Builds `int addmul(a, b) { t = a + b; return t * 3; }` at a level.
Module addmulModule(OptLevel L) {
  Module M;
  M.EntryFunction = "main";
  {
    FuncBuilder B(M, "addmul", L);
    Var A = B.param("a");
    Var Bp = B.param("b");
    Var T = B.local("t");
    Var C = B.local("c");
    B.prologue();
    B.op(BinOp::Add, T, A, Bp);
    B.setImm(C, 3);
    B.op(BinOp::Mul, T, T, C);
    B.retVar(T);
    B.finish();
  }
  {
    FuncBuilder B(M, "main", L);
    Var X = B.local("x");
    Var Y = B.local("y");
    B.prologue();
    B.setImm(X, 20);
    B.setImm(Y, 22);
    B.callInto(X, "addmul", {X, Y});
    B.haltWith(X);
    B.finish();
  }
  return M;
}

unsigned countOpcode(const Function &F, OpKind K) {
  unsigned N = 0;
  for (const BasicBlock &BB : F.Blocks)
    for (const Instr &I : BB.Instrs)
      N += I.Kind == K;
  return N;
}

} // namespace

TEST(Codegen, AllLevelsComputeTheSame) {
  for (OptLevel L : AllOptLevels) {
    Module M = addmulModule(L);
    ASSERT_TRUE(moduleIsValid(M)) << verifyModule(M).front();
    Measurement R = measureModule(M, PowerModel::stm32f100());
    ASSERT_TRUE(R.ok()) << R.Stats.Error;
    EXPECT_EQ(R.Stats.ExitCode, 126u) << optLevelName(L); // (20+22)*3
  }
}

TEST(Codegen, O0SpillsEverything) {
  Module M = addmulModule(OptLevel::O0);
  const Function &F = *M.findFunction("addmul");
  // Every statement round-trips the stack: loads and stores abound.
  EXPECT_GT(countOpcode(F, OpKind::LdrImm), 3u);
  EXPECT_GT(countOpcode(F, OpKind::StrImm), 2u);
  // The frame is set up with sub sp / add sp.
  EXPECT_GE(countOpcode(F, OpKind::SubImm), 1u);
}

TEST(Codegen, O1KeepsLocalsInRegisters) {
  Module M = addmulModule(OptLevel::O1);
  const Function &F = *M.findFunction("addmul");
  // No stack traffic beyond push/pop.
  EXPECT_EQ(countOpcode(F, OpKind::LdrImm), 0u);
  EXPECT_EQ(countOpcode(F, OpKind::StrImm), 0u);
}

TEST(Codegen, O0CodeIsLargerAndSlower) {
  Module M0 = addmulModule(OptLevel::O0);
  Module M1 = addmulModule(OptLevel::O1);
  EXPECT_GT(M0.findFunction("addmul")->codeSizeBytes(),
            M1.findFunction("addmul")->codeSizeBytes());
  Measurement R0 = measureModule(M0, PowerModel::stm32f100());
  Measurement R1 = measureModule(M1, PowerModel::stm32f100());
  ASSERT_TRUE(R0.ok() && R1.ok());
  EXPECT_GT(R0.Stats.Cycles, R1.Stats.Cycles);
}

TEST(Codegen, ScratchRegisterNeverAllocated) {
  // Many locals: the pool must skip r7 and spill the overflow.
  Module M;
  M.EntryFunction = "f";
  FuncBuilder B(M, "f", OptLevel::O1);
  std::vector<Var> Vars;
  for (unsigned I = 0; I != 12; ++I)
    Vars.push_back(B.local(formatString("v%u", I)));
  B.prologue();
  for (unsigned I = 0; I != 12; ++I)
    B.setImm(Vars[I], I);
  Var Acc = Vars[0];
  for (unsigned I = 1; I != 12; ++I)
    B.op(BinOp::Add, Acc, Acc, Vars[I]);
  B.haltWith(Acc);
  B.finish();

  ASSERT_TRUE(moduleIsValid(M)) << verifyModule(M).front();
  Measurement R = measureModule(M, PowerModel::stm32f100());
  ASSERT_TRUE(R.ok()) << R.Stats.Error;
  EXPECT_EQ(R.Stats.ExitCode, 66u); // 0+1+...+11
}

TEST(Codegen, UnrollFactorsPerLevel) {
  Module M;
  FuncBuilder B0(M, "a", OptLevel::O0);
  EXPECT_EQ(B0.unroll(), 1u);
  FuncBuilder B1(M, "b", OptLevel::O1);
  EXPECT_EQ(B1.unroll(), 1u);
  FuncBuilder B2(M, "c", OptLevel::O2);
  EXPECT_EQ(B2.unroll(), 2u);
  FuncBuilder B3(M, "d", OptLevel::O3);
  EXPECT_EQ(B3.unroll(), 4u);
  FuncBuilder Bs(M, "e", OptLevel::Os);
  EXPECT_EQ(Bs.unroll(), 1u);
}

TEST(Codegen, ParameterMarshalling) {
  // Four parameters arrive in r0-r3 and survive into the body at all
  // levels.
  for (OptLevel L : AllOptLevels) {
    Module M;
    M.EntryFunction = "main";
    {
      FuncBuilder B(M, "sum4", L);
      Var A = B.param("a");
      Var Bv = B.param("b");
      Var C = B.param("c");
      Var D = B.param("d");
      B.prologue();
      B.op(BinOp::Add, A, A, Bv);
      B.op(BinOp::Add, A, A, C);
      B.op(BinOp::Add, A, A, D);
      B.retVar(A);
      B.finish();
    }
    {
      FuncBuilder B(M, "main", L);
      Var W = B.local("w");
      Var X = B.local("x");
      Var Y = B.local("y");
      Var Z = B.local("z");
      B.prologue();
      B.setImm(W, 1);
      B.setImm(X, 2);
      B.setImm(Y, 4);
      B.setImm(Z, 8);
      B.callInto(W, "sum4", {W, X, Y, Z});
      B.haltWith(W);
      B.finish();
    }
    Measurement R = measureModule(M, PowerModel::stm32f100());
    ASSERT_TRUE(R.ok()) << optLevelName(L) << ": " << R.Stats.Error;
    EXPECT_EQ(R.Stats.ExitCode, 15u) << optLevelName(L);
  }
}

TEST(Codegen, ByteMemoryOps) {
  Module M;
  M.EntryFunction = "main";
  M.addBss("bytes", 16);
  FuncBuilder B(M, "main", OptLevel::O1);
  Var Buf = B.local("buf");
  Var I = B.local("i");
  Var V = B.local("v");
  Var Sum = B.local("sum");
  B.prologue();
  B.addrOf(Buf, "bytes");
  B.setImm(I, 0);
  B.block("fill");
  B.opImm(BinOp::Lsl, V, I, 4);
  B.storeBIdx(V, Buf, I);
  B.opImm(BinOp::Add, I, I, 1);
  B.brCmpImm(CmpOp::SLt, I, 16, "fill");
  B.block("read");
  B.setImm(Sum, 0);
  B.setImm(I, 0);
  B.block("acc");
  B.loadBIdx(V, Buf, I);
  B.op(BinOp::Add, Sum, Sum, V);
  B.opImm(BinOp::Add, I, I, 1);
  B.brCmpImm(CmpOp::SLt, I, 16, "acc");
  B.block("done");
  B.haltWith(Sum);
  B.finish();

  Measurement R = measureModule(M, PowerModel::stm32f100());
  ASSERT_TRUE(R.ok()) << R.Stats.Error;
  // sum of (i << 4) & 0xFF for i in 0..15 = 16 * (0+...+15) mod byte
  uint32_t Expected = 0;
  for (uint32_t I = 0; I != 16; ++I)
    Expected += static_cast<uint8_t>(I << 4);
  EXPECT_EQ(R.Stats.ExitCode, Expected);
}

TEST(Codegen, GeneratedFunctionsSurviveOptimization) {
  // The generated code must interact correctly with the instrumenter at
  // every level (r7 discipline, block shapes).
  for (OptLevel L : AllOptLevels) {
    Module M = addmulModule(L);
    PipelineOptions Opts;
    Opts.Knobs.RspareBytes = 4096;
    Opts.Knobs.Xlimit = 3.0;
    PipelineResult R = optimizeModule(M, Opts);
    ASSERT_TRUE(R.ok()) << optLevelName(L) << ": " << R.Error;
    EXPECT_EQ(R.MeasuredOpt.Stats.ExitCode, 126u);
  }
}
