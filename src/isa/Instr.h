//===- isa/Instr.h - machine instruction ------------------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat machine-instruction record plus factory helpers. Operands are
/// stored positionally in \c Regs / \c Imm / \c Sym; the meaning per opcode
/// is documented on the factory functions, which are the preferred way to
/// construct instructions.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_ISA_INSTR_H
#define RAMLOC_ISA_INSTR_H

#include "isa/Condition.h"
#include "isa/OpKind.h"
#include "isa/Register.h"

#include <cstdint>
#include <string>

namespace ramloc {

/// A single machine instruction. Its operands fill Regs, Imm and Sym in
/// the order its form writes them (RAMLOC_OP_FORMS in isa/OpKind.h):
/// "mla rd, rn, rm, ra" is Regs[0..3], "ldr rt, [rn, #imm]" is Regs[0..1]
/// and Imm, "ldr rt, =X" names X in Sym or holds it in Imm. push/pop's Imm
/// is a register mask (bit 14 = lr, bit 15 = pc); it/ite's Imm is the
/// pattern length (1 or 2) in bits 0-1 and the else bit in bit 2.
struct Instr {
  OpKind Kind = OpKind::Nop;
  /// Execution condition. AL unless the instruction sits in an IT block or
  /// is a conditional branch.
  Cond CondCode = Cond::AL;
  /// True if the instruction updates NZCV (the "s" suffix).
  bool SetsFlags = false;
  Reg Regs[4] = {R0, R0, R0, R0};
  int32_t Imm = 0;
  /// Symbol operand: branch target label, callee, or data symbol.
  std::string Sym;

  bool operator==(const Instr &O) const = default;

  /// True for instructions that can end a basic block (b, conditional b,
  /// cbz/cbnz, bx, pop {...pc}, ldr pc, bkpt). wfi is NOT a terminator:
  /// it sleeps and falls through.
  bool isTerminator() const;

  /// True for bl / blx call instructions.
  bool isCall() const { return Kind == OpKind::Bl || Kind == OpKind::Blx; }

  /// True for bcc / cbz / cbnz, whose cost depends on the direction taken.
  bool isCondBranch() const {
    return Kind == OpKind::BCond || Kind == OpKind::Cbz ||
           Kind == OpKind::Cbnz;
  }

  /// True when this is `ldr pc, =sym`, the indirect long-range jump the
  /// instrumenter emits (Figure 4).
  bool isLongJump() const {
    return Kind == OpKind::LdrLit && Regs[0] == PC;
  }

  /// True for pop {..., pc}.
  bool isPopReturn() const {
    return Kind == OpKind::Pop && (Imm & (1 << PC)) != 0;
  }
};

/// Number of registers in a push/pop mask.
unsigned regMaskCount(uint32_t Mask);

// Factory helpers. These assert operand validity so malformed instructions
// fail at construction, not deep inside the simulator.
namespace build {

Instr movImm(Reg Rd, int32_t Imm);
Instr movReg(Reg Rd, Reg Rm);
Instr mvn(Reg Rd, Reg Rm);
Instr addImm(Reg Rd, Reg Rn, int32_t Imm);
Instr addReg(Reg Rd, Reg Rn, Reg Rm);
Instr subImm(Reg Rd, Reg Rn, int32_t Imm);
Instr subReg(Reg Rd, Reg Rn, Reg Rm);
Instr rsb(Reg Rd, Reg Rn, int32_t Imm);
Instr adc(Reg Rd, Reg Rn, Reg Rm);
Instr sbc(Reg Rd, Reg Rn, Reg Rm);
Instr mul(Reg Rd, Reg Rn, Reg Rm);
Instr mla(Reg Rd, Reg Rn, Reg Rm, Reg Ra);
Instr udiv(Reg Rd, Reg Rn, Reg Rm);
Instr sdiv(Reg Rd, Reg Rn, Reg Rm);
Instr andReg(Reg Rd, Reg Rn, Reg Rm);
Instr orrReg(Reg Rd, Reg Rn, Reg Rm);
Instr eorReg(Reg Rd, Reg Rn, Reg Rm);
Instr bicReg(Reg Rd, Reg Rn, Reg Rm);
Instr andImm(Reg Rd, Reg Rn, int32_t Imm);
Instr orrImm(Reg Rd, Reg Rn, int32_t Imm);
Instr eorImm(Reg Rd, Reg Rn, int32_t Imm);
Instr bicImm(Reg Rd, Reg Rn, int32_t Imm);
Instr lslImm(Reg Rd, Reg Rm, int32_t Sh);
Instr lsrImm(Reg Rd, Reg Rm, int32_t Sh);
Instr asrImm(Reg Rd, Reg Rm, int32_t Sh);
Instr lslReg(Reg Rd, Reg Rn, Reg Rm);
Instr lsrReg(Reg Rd, Reg Rn, Reg Rm);
Instr asrReg(Reg Rd, Reg Rn, Reg Rm);
Instr rorReg(Reg Rd, Reg Rn, Reg Rm);
Instr cmpImm(Reg Rn, int32_t Imm);
Instr cmpReg(Reg Rn, Reg Rm);
Instr tst(Reg Rn, Reg Rm);
Instr uxtb(Reg Rd, Reg Rm);
Instr uxth(Reg Rd, Reg Rm);
Instr sxtb(Reg Rd, Reg Rm);
Instr sxth(Reg Rd, Reg Rm);

Instr ldrImm(Reg Rt, Reg Rn, int32_t Off);
Instr ldrReg(Reg Rt, Reg Rn, Reg Rm);
Instr strImm(Reg Rt, Reg Rn, int32_t Off);
Instr strReg(Reg Rt, Reg Rn, Reg Rm);
Instr ldrbImm(Reg Rt, Reg Rn, int32_t Off);
Instr ldrbReg(Reg Rt, Reg Rn, Reg Rm);
Instr strbImm(Reg Rt, Reg Rn, int32_t Off);
Instr strbReg(Reg Rt, Reg Rn, Reg Rm);
Instr ldrhImm(Reg Rt, Reg Rn, int32_t Off);
Instr strhImm(Reg Rt, Reg Rn, int32_t Off);

/// ldr Rt, =Sym — loads the address of \p Sym via the literal pool.
Instr ldrLitSym(Reg Rt, std::string Sym);
/// ldr Rt, =Imm — loads a 32-bit constant via the literal pool.
Instr ldrLitConst(Reg Rt, int32_t Imm);

Instr push(uint32_t Mask);
Instr pop(uint32_t Mask);

Instr b(std::string Target);
Instr bCond(Cond C, std::string Target);
Instr cbz(Reg Rn, std::string Target);
Instr cbnz(Reg Rn, std::string Target);
Instr bl(std::string Callee);
Instr blx(Reg Rm);
Instr bx(Reg Rm);

/// it/ite with one or two covered instructions.
Instr it(Cond C);
Instr ite(Cond C);

Instr nop();
Instr wfi();
Instr bkpt();

/// Returns a copy of \p I marked as setting flags (the "s" suffix).
Instr setS(Instr I);
/// Returns a copy of \p I predicated on \p C (for use inside IT blocks).
Instr withCond(Instr I, Cond C);

} // namespace build

} // namespace ramloc

#endif // RAMLOC_ISA_INSTR_H
