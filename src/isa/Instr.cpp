//===- isa/Instr.cpp - machine instruction ---------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "isa/Instr.h"

#include <cassert>

using namespace ramloc;

const char *ramloc::opMnemonic(OpKind Kind) {
  switch (Kind) {
#define X(Name, Mnemonic, Class, Form, Lo, Hi)                               \
  case OpKind::Name:                                                         \
    return Mnemonic;
    RAMLOC_OPCODES(X)
#undef X
  }
  assert(false && "invalid opcode");
  return "";
}

InstrClass ramloc::opClass(OpKind Kind) {
  switch (Kind) {
#define X(Name, Mnemonic, Class, Form, Lo, Hi)                               \
  case OpKind::Name:                                                         \
    return InstrClass::Class;
    RAMLOC_OPCODES(X)
#undef X
  }
  assert(false && "invalid opcode");
  return InstrClass::Nop;
}

const char *ramloc::instrClassName(InstrClass Class) {
  switch (Class) {
  case InstrClass::Nop:
    return "nop";
  case InstrClass::Alu:
    return "alu";
  case InstrClass::Mul:
    return "mul";
  case InstrClass::Div:
    return "div";
  case InstrClass::Load:
    return "load";
  case InstrClass::Store:
    return "store";
  case InstrClass::Branch:
    return "branch";
  }
  assert(false && "invalid class");
  return "";
}

bool Instr::isTerminator() const {
  switch (Kind) {
  case OpKind::B:
  case OpKind::BCond:
  case OpKind::Cbz:
  case OpKind::Cbnz:
  case OpKind::Bx:
  case OpKind::Bkpt:
    return true;
  case OpKind::Pop:
    return isPopReturn();
  case OpKind::LdrLit:
    return isLongJump();
  default:
    return false;
  }
}

unsigned ramloc::regMaskCount(uint32_t Mask) {
  unsigned Count = 0;
  for (unsigned I = 0; I < 16; ++I)
    if (Mask & (1u << I))
      ++Count;
  return Count;
}

namespace {

Instr make(OpKind Kind, Reg R0In = R0, Reg R1In = R0, Reg R2In = R0,
           Reg R3In = R0, int32_t Imm = 0, std::string Sym = {}) {
  Instr I;
  I.Kind = Kind;
  I.Regs[0] = R0In;
  I.Regs[1] = R1In;
  I.Regs[2] = R2In;
  I.Regs[3] = R3In;
  I.Imm = Imm;
  I.Sym = std::move(Sym);
  return I;
}

} // namespace

namespace ramloc {
namespace build {

Instr movImm(Reg Rd, int32_t Imm) {
  assert(Imm >= 0 && Imm <= 0xFFFF && "mov imm out of range; use ldr =const");
  return make(OpKind::MovImm, Rd, R0, R0, R0, Imm);
}
Instr movReg(Reg Rd, Reg Rm) { return make(OpKind::MovReg, Rd, Rm); }
Instr mvn(Reg Rd, Reg Rm) { return make(OpKind::Mvn, Rd, Rm); }
Instr addImm(Reg Rd, Reg Rn, int32_t Imm) {
  assert(Imm >= 0 && Imm <= 4095 && "add imm out of range");
  return make(OpKind::AddImm, Rd, Rn, R0, R0, Imm);
}
Instr addReg(Reg Rd, Reg Rn, Reg Rm) {
  return make(OpKind::AddReg, Rd, Rn, Rm);
}
Instr subImm(Reg Rd, Reg Rn, int32_t Imm) {
  assert(Imm >= 0 && Imm <= 4095 && "sub imm out of range");
  return make(OpKind::SubImm, Rd, Rn, R0, R0, Imm);
}
Instr subReg(Reg Rd, Reg Rn, Reg Rm) {
  return make(OpKind::SubReg, Rd, Rn, Rm);
}
Instr rsb(Reg Rd, Reg Rn, int32_t Imm) {
  return make(OpKind::Rsb, Rd, Rn, R0, R0, Imm);
}
Instr adc(Reg Rd, Reg Rn, Reg Rm) { return make(OpKind::Adc, Rd, Rn, Rm); }
Instr sbc(Reg Rd, Reg Rn, Reg Rm) { return make(OpKind::Sbc, Rd, Rn, Rm); }
Instr mul(Reg Rd, Reg Rn, Reg Rm) { return make(OpKind::Mul, Rd, Rn, Rm); }
Instr mla(Reg Rd, Reg Rn, Reg Rm, Reg Ra) {
  return make(OpKind::Mla, Rd, Rn, Rm, Ra);
}
Instr udiv(Reg Rd, Reg Rn, Reg Rm) { return make(OpKind::Udiv, Rd, Rn, Rm); }
Instr sdiv(Reg Rd, Reg Rn, Reg Rm) { return make(OpKind::Sdiv, Rd, Rn, Rm); }
Instr andReg(Reg Rd, Reg Rn, Reg Rm) {
  return make(OpKind::AndReg, Rd, Rn, Rm);
}
Instr orrReg(Reg Rd, Reg Rn, Reg Rm) {
  return make(OpKind::OrrReg, Rd, Rn, Rm);
}
Instr eorReg(Reg Rd, Reg Rn, Reg Rm) {
  return make(OpKind::EorReg, Rd, Rn, Rm);
}
Instr bicReg(Reg Rd, Reg Rn, Reg Rm) {
  return make(OpKind::BicReg, Rd, Rn, Rm);
}
Instr andImm(Reg Rd, Reg Rn, int32_t Imm) {
  return make(OpKind::AndImm, Rd, Rn, R0, R0, Imm);
}
Instr orrImm(Reg Rd, Reg Rn, int32_t Imm) {
  return make(OpKind::OrrImm, Rd, Rn, R0, R0, Imm);
}
Instr eorImm(Reg Rd, Reg Rn, int32_t Imm) {
  return make(OpKind::EorImm, Rd, Rn, R0, R0, Imm);
}
Instr bicImm(Reg Rd, Reg Rn, int32_t Imm) {
  return make(OpKind::BicImm, Rd, Rn, R0, R0, Imm);
}
Instr lslImm(Reg Rd, Reg Rm, int32_t Sh) {
  assert(Sh >= 0 && Sh <= 31 && "shift out of range");
  return make(OpKind::LslImm, Rd, Rm, R0, R0, Sh);
}
Instr lsrImm(Reg Rd, Reg Rm, int32_t Sh) {
  assert(Sh >= 1 && Sh <= 32 && "shift out of range");
  return make(OpKind::LsrImm, Rd, Rm, R0, R0, Sh);
}
Instr asrImm(Reg Rd, Reg Rm, int32_t Sh) {
  assert(Sh >= 1 && Sh <= 32 && "shift out of range");
  return make(OpKind::AsrImm, Rd, Rm, R0, R0, Sh);
}
Instr lslReg(Reg Rd, Reg Rn, Reg Rm) {
  return make(OpKind::LslReg, Rd, Rn, Rm);
}
Instr lsrReg(Reg Rd, Reg Rn, Reg Rm) {
  return make(OpKind::LsrReg, Rd, Rn, Rm);
}
Instr asrReg(Reg Rd, Reg Rn, Reg Rm) {
  return make(OpKind::AsrReg, Rd, Rn, Rm);
}
Instr rorReg(Reg Rd, Reg Rn, Reg Rm) {
  return make(OpKind::RorReg, Rd, Rn, Rm);
}
Instr cmpImm(Reg Rn, int32_t Imm) {
  assert(Imm >= 0 && Imm <= 4095 && "cmp imm out of range");
  Instr I = make(OpKind::CmpImm, Rn, R0, R0, R0, Imm);
  I.SetsFlags = true;
  return I;
}
Instr cmpReg(Reg Rn, Reg Rm) {
  Instr I = make(OpKind::CmpReg, Rn, Rm);
  I.SetsFlags = true;
  return I;
}
Instr tst(Reg Rn, Reg Rm) {
  Instr I = make(OpKind::Tst, Rn, Rm);
  I.SetsFlags = true;
  return I;
}
Instr uxtb(Reg Rd, Reg Rm) { return make(OpKind::Uxtb, Rd, Rm); }
Instr uxth(Reg Rd, Reg Rm) { return make(OpKind::Uxth, Rd, Rm); }
Instr sxtb(Reg Rd, Reg Rm) { return make(OpKind::Sxtb, Rd, Rm); }
Instr sxth(Reg Rd, Reg Rm) { return make(OpKind::Sxth, Rd, Rm); }

Instr ldrImm(Reg Rt, Reg Rn, int32_t Off) {
  assert(Off >= 0 && Off <= 4095 && "ldr offset out of range");
  return make(OpKind::LdrImm, Rt, Rn, R0, R0, Off);
}
Instr ldrReg(Reg Rt, Reg Rn, Reg Rm) {
  return make(OpKind::LdrReg, Rt, Rn, Rm);
}
Instr strImm(Reg Rt, Reg Rn, int32_t Off) {
  assert(Off >= 0 && Off <= 4095 && "str offset out of range");
  return make(OpKind::StrImm, Rt, Rn, R0, R0, Off);
}
Instr strReg(Reg Rt, Reg Rn, Reg Rm) {
  return make(OpKind::StrReg, Rt, Rn, Rm);
}
Instr ldrbImm(Reg Rt, Reg Rn, int32_t Off) {
  assert(Off >= 0 && Off <= 4095 && "ldrb offset out of range");
  return make(OpKind::LdrbImm, Rt, Rn, R0, R0, Off);
}
Instr ldrbReg(Reg Rt, Reg Rn, Reg Rm) {
  return make(OpKind::LdrbReg, Rt, Rn, Rm);
}
Instr strbImm(Reg Rt, Reg Rn, int32_t Off) {
  assert(Off >= 0 && Off <= 4095 && "strb offset out of range");
  return make(OpKind::StrbImm, Rt, Rn, R0, R0, Off);
}
Instr strbReg(Reg Rt, Reg Rn, Reg Rm) {
  return make(OpKind::StrbReg, Rt, Rn, Rm);
}
Instr ldrhImm(Reg Rt, Reg Rn, int32_t Off) {
  assert(Off >= 0 && Off <= 4095 && (Off % 2) == 0 && "bad ldrh offset");
  return make(OpKind::LdrhImm, Rt, Rn, R0, R0, Off);
}
Instr strhImm(Reg Rt, Reg Rn, int32_t Off) {
  assert(Off >= 0 && Off <= 4095 && (Off % 2) == 0 && "bad strh offset");
  return make(OpKind::StrhImm, Rt, Rn, R0, R0, Off);
}

Instr ldrLitSym(Reg Rt, std::string Sym) {
  assert(!Sym.empty() && "literal symbol must be named");
  return make(OpKind::LdrLit, Rt, R0, R0, R0, 0, std::move(Sym));
}
Instr ldrLitConst(Reg Rt, int32_t Imm) {
  return make(OpKind::LdrLit, Rt, R0, R0, R0, Imm);
}

Instr push(uint32_t Mask) {
  assert(Mask != 0 && (Mask & 0xA000) == 0 && "push allows r0-r12 and lr");
  return make(OpKind::Push, R0, R0, R0, R0, static_cast<int32_t>(Mask));
}
Instr pop(uint32_t Mask) {
  assert(Mask != 0 && (Mask & 0x6000) == 0 && "pop allows r0-r12 and pc");
  return make(OpKind::Pop, R0, R0, R0, R0, static_cast<int32_t>(Mask));
}

Instr b(std::string Target) {
  return make(OpKind::B, R0, R0, R0, R0, 0, std::move(Target));
}
Instr bCond(Cond C, std::string Target) {
  assert(C != Cond::AL && "conditional branch needs a real condition");
  Instr I = make(OpKind::BCond, R0, R0, R0, R0, 0, std::move(Target));
  I.CondCode = C;
  return I;
}
Instr cbz(Reg Rn, std::string Target) {
  assert(isLowReg(Rn) && "cbz requires a low register");
  return make(OpKind::Cbz, Rn, R0, R0, R0, 0, std::move(Target));
}
Instr cbnz(Reg Rn, std::string Target) {
  assert(isLowReg(Rn) && "cbnz requires a low register");
  return make(OpKind::Cbnz, Rn, R0, R0, R0, 0, std::move(Target));
}
Instr bl(std::string Callee) {
  return make(OpKind::Bl, R0, R0, R0, R0, 0, std::move(Callee));
}
Instr blx(Reg Rm) { return make(OpKind::Blx, Rm); }
Instr bx(Reg Rm) { return make(OpKind::Bx, Rm); }

Instr it(Cond C) {
  assert(C != Cond::AL && "it needs a real condition");
  Instr I = make(OpKind::It, R0, R0, R0, R0, /*Imm=*/1);
  I.CondCode = C;
  return I;
}
Instr ite(Cond C) {
  assert(C != Cond::AL && "ite needs a real condition");
  Instr I = make(OpKind::It, R0, R0, R0, R0, /*Imm=*/2 | 4);
  I.CondCode = C;
  return I;
}

Instr nop() { return make(OpKind::Nop); }
Instr wfi() { return make(OpKind::Wfi); }
Instr bkpt() { return make(OpKind::Bkpt); }

Instr setS(Instr I) {
  I.SetsFlags = true;
  return I;
}
Instr withCond(Instr I, Cond C) {
  I.CondCode = C;
  return I;
}

} // namespace build
} // namespace ramloc
