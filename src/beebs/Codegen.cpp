//===- beebs/Codegen.cpp - benchmark code generator ----------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "beebs/Codegen.h"

#include <cassert>

using namespace ramloc;
using namespace ramloc::build;

const char *ramloc::optLevelName(OptLevel L) {
  switch (L) {
  case OptLevel::O0:
    return "O0";
  case OptLevel::O1:
    return "O1";
  case OptLevel::O2:
    return "O2";
  case OptLevel::O3:
    return "O3";
  case OptLevel::Os:
    return "Os";
  }
  return "?";
}

bool ramloc::optLevelFromName(const std::string &Name, OptLevel &Out) {
  for (OptLevel L : AllOptLevels)
    if (Name == optLevelName(L)) {
      Out = L;
      return true;
    }
  return false;
}

namespace {

/// Callee-saved registers available for locals (r7 is the reserved
/// instrumentation scratch and is deliberately absent).
constexpr Reg RegPool[] = {R4, R5, R6, R8, R9, R10, R11};
constexpr unsigned RegPoolSize = sizeof(RegPool) / sizeof(RegPool[0]);

} // namespace

FuncBuilder::FuncBuilder(Module &M, std::string Name, OptLevel Level,
                         bool Optimizable)
    : M(M), F(std::move(Name)), Level(Level) {
  F.Optimizable = Optimizable;
}

unsigned FuncBuilder::unroll() const {
  switch (Level) {
  case OptLevel::O2:
    return 2;
  case OptLevel::O3:
    return 4;
  default:
    return 1;
  }
}

Var FuncBuilder::param(const std::string &Name) {
  assert(!DidPrologue && "declare params before prologue()");
  assert(NumParams < 4 && "at most four register parameters");
  ++NumParams;
  return local(Name);
}

Var FuncBuilder::local(const std::string &Name) {
  assert(!DidPrologue && "declare locals before prologue()");
  VarInfo VI;
  VI.Name = Name;
  unsigned Idx = static_cast<unsigned>(Vars.size());
  if (Level != OptLevel::O0 && Idx < RegPoolSize) {
    VI.InReg = true;
    VI.R = RegPool[Idx];
  } else {
    VI.Slot = static_cast<int>(NumSlots++);
  }
  Vars.push_back(std::move(VI));
  return {static_cast<int>(Idx)};
}

void FuncBuilder::prologue() {
  assert(!DidPrologue && "prologue emitted twice");
  DidPrologue = true;
  F.Blocks.emplace_back("entry");

  SaveMask = 1u << LR;
  for (const VarInfo &VI : Vars)
    if (VI.InReg)
      SaveMask |= 1u << VI.R;

  cur().Instrs.push_back(push(SaveMask));
  if (NumSlots > 0)
    cur().Instrs.push_back(subImm(SP, SP, static_cast<int32_t>(
                                              4 * NumSlots)));
  // Home the incoming arguments.
  for (unsigned PI = 0; PI != NumParams; ++PI) {
    const VarInfo &VI = Vars[PI];
    Reg In = static_cast<Reg>(PI);
    if (VI.InReg)
      cur().Instrs.push_back(movReg(VI.R, In));
    else
      cur().Instrs.push_back(strImm(In, SP, 4 * VI.Slot));
  }
}

void FuncBuilder::block(const std::string &Label) {
  assert(DidPrologue && "open blocks after prologue()");
  F.Blocks.emplace_back(Label);
}

BasicBlock &FuncBuilder::cur() {
  assert(!F.Blocks.empty() && "no open block");
  return F.Blocks.back();
}

Reg FuncBuilder::use(Var V, Reg Scratch) {
  assert(V.Id >= 0 && static_cast<unsigned>(V.Id) < Vars.size());
  const VarInfo &VI = Vars[static_cast<unsigned>(V.Id)];
  if (VI.InReg)
    return VI.R;
  cur().Instrs.push_back(ldrImm(Scratch, SP, 4 * VI.Slot));
  return Scratch;
}

Reg FuncBuilder::target(Var V, Reg Scratch) {
  const VarInfo &VI = Vars[static_cast<unsigned>(V.Id)];
  return VI.InReg ? VI.R : Scratch;
}

void FuncBuilder::def(Var V, Reg Computed) {
  const VarInfo &VI = Vars[static_cast<unsigned>(V.Id)];
  if (VI.InReg) {
    if (VI.R != Computed)
      cur().Instrs.push_back(movReg(VI.R, Computed));
    return;
  }
  cur().Instrs.push_back(strImm(Computed, SP, 4 * VI.Slot));
}

void FuncBuilder::setImm(Var D, uint32_t Imm) {
  Reg Rd = target(D, R2);
  if (Imm <= 0xFFFF)
    cur().Instrs.push_back(movImm(Rd, static_cast<int32_t>(Imm)));
  else
    cur().Instrs.push_back(ldrLitConst(Rd, static_cast<int32_t>(Imm)));
  def(D, Rd);
}

void FuncBuilder::setVar(Var D, Var S) {
  Reg Rs = use(S, R0);
  def(D, Rs);
}

void FuncBuilder::addrOf(Var D, const std::string &Sym) {
  Reg Rd = target(D, R2);
  cur().Instrs.push_back(ldrLitSym(Rd, Sym));
  def(D, Rd);
}

void FuncBuilder::op(BinOp O, Var D, Var A, Var B) {
  Reg Ra = use(A, R0);
  Reg Rb = use(B, R1);
  Reg Rd = target(D, R2);
  switch (O) {
  case BinOp::Add:
    cur().Instrs.push_back(addReg(Rd, Ra, Rb));
    break;
  case BinOp::Sub:
    cur().Instrs.push_back(subReg(Rd, Ra, Rb));
    break;
  case BinOp::Mul:
    cur().Instrs.push_back(mul(Rd, Ra, Rb));
    break;
  case BinOp::And:
    cur().Instrs.push_back(andReg(Rd, Ra, Rb));
    break;
  case BinOp::Orr:
    cur().Instrs.push_back(orrReg(Rd, Ra, Rb));
    break;
  case BinOp::Eor:
    cur().Instrs.push_back(eorReg(Rd, Ra, Rb));
    break;
  case BinOp::Lsl:
    cur().Instrs.push_back(lslReg(Rd, Ra, Rb));
    break;
  case BinOp::Lsr:
    cur().Instrs.push_back(lsrReg(Rd, Ra, Rb));
    break;
  case BinOp::Asr:
    cur().Instrs.push_back(asrReg(Rd, Ra, Rb));
    break;
  case BinOp::Udiv:
    cur().Instrs.push_back(udiv(Rd, Ra, Rb));
    break;
  case BinOp::Sdiv:
    cur().Instrs.push_back(sdiv(Rd, Ra, Rb));
    break;
  }
  def(D, Rd);
}

void FuncBuilder::opImm(BinOp O, Var D, Var A, int32_t Imm) {
  Reg Ra = use(A, R0);
  Reg Rd = target(D, R2);
  switch (O) {
  case BinOp::Add:
    cur().Instrs.push_back(addImm(Rd, Ra, Imm));
    break;
  case BinOp::Sub:
    cur().Instrs.push_back(subImm(Rd, Ra, Imm));
    break;
  case BinOp::And:
    cur().Instrs.push_back(andImm(Rd, Ra, Imm));
    break;
  case BinOp::Orr:
    cur().Instrs.push_back(orrImm(Rd, Ra, Imm));
    break;
  case BinOp::Eor:
    cur().Instrs.push_back(eorImm(Rd, Ra, Imm));
    break;
  case BinOp::Lsl:
    cur().Instrs.push_back(lslImm(Rd, Ra, Imm));
    break;
  case BinOp::Lsr:
    cur().Instrs.push_back(lsrImm(Rd, Ra, Imm));
    break;
  case BinOp::Asr:
    cur().Instrs.push_back(asrImm(Rd, Ra, Imm));
    break;
  case BinOp::Mul:
  case BinOp::Udiv:
  case BinOp::Sdiv:
    assert(false && "no immediate form for mul/div");
    break;
  }
  def(D, Rd);
}

void FuncBuilder::loadW(Var D, Var Base, int32_t Off) {
  Reg Rb = use(Base, R0);
  Reg Rd = target(D, R2);
  cur().Instrs.push_back(ldrImm(Rd, Rb, Off));
  def(D, Rd);
}

void FuncBuilder::storeW(Var S, Var Base, int32_t Off) {
  Reg Rs = use(S, R0);
  Reg Rb = use(Base, R1);
  cur().Instrs.push_back(strImm(Rs, Rb, Off));
}

void FuncBuilder::loadB(Var D, Var Base, int32_t Off) {
  Reg Rb = use(Base, R0);
  Reg Rd = target(D, R2);
  cur().Instrs.push_back(ldrbImm(Rd, Rb, Off));
  def(D, Rd);
}

void FuncBuilder::storeB(Var S, Var Base, int32_t Off) {
  Reg Rs = use(S, R0);
  Reg Rb = use(Base, R1);
  cur().Instrs.push_back(strbImm(Rs, Rb, Off));
}

void FuncBuilder::loadWIdx(Var D, Var Base, Var Idx, unsigned ScaleShift) {
  Reg Rb = use(Base, R0);
  Reg Ri = use(Idx, R1);
  Reg Rd = target(D, R2);
  if (ScaleShift != 0) {
    cur().Instrs.push_back(
        lslImm(R3, Ri, static_cast<int32_t>(ScaleShift)));
    Ri = R3;
  }
  cur().Instrs.push_back(ldrReg(Rd, Rb, Ri));
  def(D, Rd);
}

void FuncBuilder::storeWIdx(Var S, Var Base, Var Idx, unsigned ScaleShift) {
  Reg Rs = use(S, R0);
  Reg Rb = use(Base, R1);
  Reg Ri = use(Idx, R2);
  if (ScaleShift != 0) {
    cur().Instrs.push_back(
        lslImm(R3, Ri, static_cast<int32_t>(ScaleShift)));
    Ri = R3;
  }
  cur().Instrs.push_back(strReg(Rs, Rb, Ri));
}

void FuncBuilder::loadBIdx(Var D, Var Base, Var Idx) {
  Reg Rb = use(Base, R0);
  Reg Ri = use(Idx, R1);
  Reg Rd = target(D, R2);
  cur().Instrs.push_back(ldrbReg(Rd, Rb, Ri));
  def(D, Rd);
}

void FuncBuilder::storeBIdx(Var S, Var Base, Var Idx) {
  Reg Rs = use(S, R0);
  Reg Rb = use(Base, R1);
  Reg Ri = use(Idx, R2);
  cur().Instrs.push_back(strbReg(Rs, Rb, Ri));
}

Cond FuncBuilder::condFor(CmpOp O) const {
  switch (O) {
  case CmpOp::Eq:
    return Cond::EQ;
  case CmpOp::Ne:
    return Cond::NE;
  case CmpOp::SLt:
    return Cond::LT;
  case CmpOp::SLe:
    return Cond::LE;
  case CmpOp::SGt:
    return Cond::GT;
  case CmpOp::SGe:
    return Cond::GE;
  case CmpOp::ULo:
    return Cond::CC;
  case CmpOp::ULs:
    return Cond::LS;
  case CmpOp::UHi:
    return Cond::HI;
  case CmpOp::UHs:
    return Cond::CS;
  }
  assert(false && "invalid comparison");
  return Cond::EQ;
}

void FuncBuilder::br(const std::string &Target) {
  cur().Instrs.push_back(b(Target));
}

void FuncBuilder::brCmpImm(CmpOp O, Var A, int32_t Imm,
                           const std::string &Target) {
  Reg Ra = use(A, R0);
  cur().Instrs.push_back(cmpImm(Ra, Imm));
  cur().Instrs.push_back(bCond(condFor(O), Target));
}

void FuncBuilder::brCmp(CmpOp O, Var A, Var B, const std::string &Target) {
  Reg Ra = use(A, R0);
  Reg Rb = use(B, R1);
  cur().Instrs.push_back(cmpReg(Ra, Rb));
  cur().Instrs.push_back(bCond(condFor(O), Target));
}

void FuncBuilder::call(const std::string &Callee,
                       std::initializer_list<Var> Args) {
  assert(Args.size() <= 4 && "at most four register arguments");
  unsigned AI = 0;
  for (Var A : Args) {
    Reg Dest = static_cast<Reg>(AI++);
    const VarInfo &VI = Vars[static_cast<unsigned>(A.Id)];
    if (VI.InReg)
      cur().Instrs.push_back(movReg(Dest, VI.R));
    else
      cur().Instrs.push_back(ldrImm(Dest, SP, 4 * VI.Slot));
  }
  cur().Instrs.push_back(bl(Callee));
}

void FuncBuilder::callInto(Var D, const std::string &Callee,
                           std::initializer_list<Var> Args) {
  call(Callee, Args);
  def(D, R0);
}

void FuncBuilder::retVar(Var V) {
  Reg Rv = use(V, R0);
  if (Rv != R0)
    cur().Instrs.push_back(movReg(R0, Rv));
  retVoid();
}

void FuncBuilder::retVoid() {
  if (NumSlots > 0)
    cur().Instrs.push_back(addImm(SP, SP, static_cast<int32_t>(
                                              4 * NumSlots)));
  uint32_t PopMask = (SaveMask & ~(1u << LR)) | (1u << PC);
  cur().Instrs.push_back(pop(PopMask));
}

void FuncBuilder::haltWith(Var V) {
  Reg Rv = use(V, R0);
  if (Rv != R0)
    cur().Instrs.push_back(movReg(R0, Rv));
  cur().Instrs.push_back(bkpt());
}

void FuncBuilder::finish() {
  assert(!Finished && "finish() called twice");
  Finished = true;
  M.Functions.push_back(std::move(F));
}
