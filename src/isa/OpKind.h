//===- isa/OpKind.h - opcode definitions ------------------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The opcode set of the Thumb-2-like target: the subset of the Cortex-M3
/// Thumb-2 instruction set the BEEBS-style workloads and the Figure 4
/// instrumentation sequences need. An opcode is one RAMLOC_OPCODES row,
/// and its syntax is that row alone: mnemonic, InstrClass (for the power
/// model; Figure 1 groups power by instruction type), operand form and,
/// where the form has an immediate or offset, its bounds. The assembly
/// printer and parser (asmio/) both read the row through opSyntax().
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_ISA_OPKIND_H
#define RAMLOC_ISA_OPKIND_H

#include <cstdint>
#include <string>

namespace ramloc {

// X-macro: RAMLOC_OP_FORM(enumerator, operands). An operand form spells
// its operands one letter each, in the order they are written and fill
// Instr::Regs:
//   r register      n low register (r0-r7)   # immediate (Instr::Imm)
//   m [rn] or [rn, #imm]   x [rn, rm]   = =symbol or =constant
//   { register list (Imm is the mask)   l label (Instr::Sym)
//   c condition (Instr::CondCode)
// Mnemonics of the forms before RegList (data and memory) take an
// optional "s" and an optional condition suffix; CondLabel's mnemonic
// takes a condition and the others take no suffix. it/ite (CondOp) is
// the one special case: "ite" is "it" plus an else instruction.
#define RAMLOC_OP_FORMS(X)                                                   \
  X(RdImm, "r#")     /* mov rd, #imm */                                     \
  X(RdRm, "rr")      /* mvn rd, rm */                                       \
  X(RdRnImm, "rr#")  /* add rd, rn, #imm; "add rd, #imm" has rn = rd */     \
  X(RdRnRm, "rrr")   /* add rd, rn, rm; "add rd, rm" has rn = rd */         \
  X(RdRnRmRa, "rrrr") /* mla rd, rn, rm, ra */                              \
  X(RnImm, "r#")     /* cmp rn, #imm: compares always set flags */          \
  X(RnRm, "rr")      /* cmp rn, rm */                                       \
  X(RtMem, "rm")     /* ldr rt, [rn, #imm] */                               \
  X(RtMemReg, "rx")  /* ldr rt, [rn, rm] */                                 \
  X(RtLit, "r=")     /* ldr rt, =sym */                                     \
  X(RegList, "{")    /* push {r4-r7, lr} */                                 \
  X(Label, "l")      /* b label */                                          \
  X(CondLabel, "l")  /* bne label */                                        \
  X(RnLabel, "nl")   /* cbz rn, label */                                    \
  X(Rm, "r")         /* bx rm */                                            \
  X(CondOp, "c")     /* it eq */                                            \
  X(None, "")        /* nop */

// X-macro: RAMLOC_OPCODE(enumerator, mnemonic, instr-class, operand-form,
// lo, hi), where [lo, hi] bounds the immediate or offset of a form that
// has one (0, 0 for the others).
#define RAMLOC_OPCODES(X)                                                    \
  /* --- data processing ------------------------------------------------ */ \
  X(MovImm, "mov", Alu, RdImm, 0, 0xFFFF)                                    \
  X(MovReg, "mov", Alu, RdRm, 0, 0)                                          \
  X(Mvn, "mvn", Alu, RdRm, 0, 0)                                             \
  X(AddImm, "add", Alu, RdRnImm, 0, 4095)                                    \
  X(AddReg, "add", Alu, RdRnRm, 0, 0)                                        \
  X(SubImm, "sub", Alu, RdRnImm, 0, 4095)                                    \
  X(SubReg, "sub", Alu, RdRnRm, 0, 0)                                        \
  X(Rsb, "rsb", Alu, RdRnImm, INT32_MIN, INT32_MAX)                          \
  X(Adc, "adc", Alu, RdRnRm, 0, 0)                                           \
  X(Sbc, "sbc", Alu, RdRnRm, 0, 0)                                           \
  X(Mul, "mul", Mul, RdRnRm, 0, 0)                                           \
  X(Mla, "mla", Mul, RdRnRmRa, 0, 0)                                         \
  X(Udiv, "udiv", Div, RdRnRm, 0, 0)                                         \
  X(Sdiv, "sdiv", Div, RdRnRm, 0, 0)                                         \
  X(AndReg, "and", Alu, RdRnRm, 0, 0)                                        \
  X(OrrReg, "orr", Alu, RdRnRm, 0, 0)                                        \
  X(EorReg, "eor", Alu, RdRnRm, 0, 0)                                        \
  X(BicReg, "bic", Alu, RdRnRm, 0, 0)                                        \
  X(AndImm, "and", Alu, RdRnImm, INT32_MIN, INT32_MAX)                       \
  X(OrrImm, "orr", Alu, RdRnImm, INT32_MIN, INT32_MAX)                       \
  X(EorImm, "eor", Alu, RdRnImm, INT32_MIN, INT32_MAX)                       \
  X(BicImm, "bic", Alu, RdRnImm, INT32_MIN, INT32_MAX)                       \
  X(LslImm, "lsl", Alu, RdRnImm, 0, 31)                                      \
  X(LsrImm, "lsr", Alu, RdRnImm, 1, 32)                                      \
  X(AsrImm, "asr", Alu, RdRnImm, 1, 32)                                      \
  X(LslReg, "lsl", Alu, RdRnRm, 0, 0)                                        \
  X(LsrReg, "lsr", Alu, RdRnRm, 0, 0)                                        \
  X(AsrReg, "asr", Alu, RdRnRm, 0, 0)                                        \
  X(RorReg, "ror", Alu, RdRnRm, 0, 0)                                        \
  X(CmpImm, "cmp", Alu, RnImm, 0, 4095)                                      \
  X(CmpReg, "cmp", Alu, RnRm, 0, 0)                                          \
  X(Tst, "tst", Alu, RnRm, 0, 0)                                             \
  X(Uxtb, "uxtb", Alu, RdRm, 0, 0)                                           \
  X(Uxth, "uxth", Alu, RdRm, 0, 0)                                           \
  X(Sxtb, "sxtb", Alu, RdRm, 0, 0)                                           \
  X(Sxth, "sxth", Alu, RdRm, 0, 0)                                           \
  /* --- memory ---------------------------------------------------------- */ \
  X(LdrImm, "ldr", Load, RtMem, 0, 4095)                                     \
  X(LdrReg, "ldr", Load, RtMemReg, 0, 0)                                     \
  X(StrImm, "str", Store, RtMem, 0, 4095)                                    \
  X(StrReg, "str", Store, RtMemReg, 0, 0)                                    \
  X(LdrbImm, "ldrb", Load, RtMem, 0, 4095)                                   \
  X(LdrbReg, "ldrb", Load, RtMemReg, 0, 0)                                   \
  X(StrbImm, "strb", Store, RtMem, 0, 4095)                                  \
  X(StrbReg, "strb", Store, RtMemReg, 0, 0)                                  \
  X(LdrhImm, "ldrh", Load, RtMem, 0, 4095)                                   \
  X(StrhImm, "strh", Store, RtMem, 0, 4095)                                  \
  X(LdrLit, "ldr", Load, RtLit, 0, 0)                                        \
  X(Push, "push", Store, RegList, 0, 0)                                      \
  X(Pop, "pop", Load, RegList, 0, 0)                                         \
  /* --- control flow ---------------------------------------------------- */ \
  X(B, "b", Branch, Label, 0, 0)                                             \
  X(BCond, "b", Branch, CondLabel, 0, 0)                                     \
  X(Cbz, "cbz", Branch, RnLabel, 0, 0)                                       \
  X(Cbnz, "cbnz", Branch, RnLabel, 0, 0)                                     \
  X(Bl, "bl", Branch, Label, 0, 0)                                           \
  X(Blx, "blx", Branch, Rm, 0, 0)                                            \
  X(Bx, "bx", Branch, Rm, 0, 0)                                              \
  X(It, "it", Nop, CondOp, 0, 0)                                             \
  /* --- misc ------------------------------------------------------------ */ \
  X(Nop, "nop", Nop, None, 0, 0)                                             \
  X(Wfi, "wfi", Nop, None, 0, 0)                                             \
  X(Bkpt, "bkpt", Nop, None, 0, 0)

/// Opcode enumeration.
enum class OpKind : uint8_t {
#define X(Name, Mnemonic, Class, Form, Lo, Hi) Name,
  RAMLOC_OPCODES(X)
#undef X
};

/// Instruction classes as used by the power model: Figure 1 of the paper
/// measures distinct average power for stores, loads, ALU ops, nops and
/// branches, out of both flash and RAM.
enum class InstrClass : uint8_t {
  Nop,
  Alu,
  Mul,
  Div,
  Load,
  Store,
  Branch,
};

/// Returns the assembly mnemonic (without condition or width suffixes).
const char *opMnemonic(OpKind Kind);

/// Returns the power-model class of the opcode.
InstrClass opClass(OpKind Kind);

/// Human-readable name for an instruction class.
const char *instrClassName(InstrClass Class);

/// The number of opcode enumerators (for table sizing).
constexpr unsigned NumOpKinds = 0
#define X(Name, Mnemonic, Class, Form, Lo, Hi) +1
    RAMLOC_OPCODES(X)
#undef X
    ;

/// How an opcode's operands are written.
enum class OpForm : uint8_t {
#define X(Name, Operands) Name,
  RAMLOC_OP_FORMS(X)
#undef X
};

/// The operand letters of \p Form (see RAMLOC_OP_FORMS).
constexpr const char *formOperands(OpForm Form) {
  constexpr const char *Operands[] = {
#define X(Name, Operands) Operands,
      RAMLOC_OP_FORMS(X)
#undef X
  };
  return Operands[static_cast<unsigned>(Form)];
}

/// An opcode's syntax: its RAMLOC_OPCODES row less the power class.
struct OpSyntax {
  const char *Mnemonic;
  OpForm Form;
  int32_t ImmLo, ImmHi;
};

/// Every opcode's syntax, indexed by OpKind.
inline constexpr OpSyntax OpSyntaxTable[] = {
#define X(Name, Mnemonic, Class, Form, Lo, Hi) {Mnemonic, OpForm::Form, Lo, Hi},
    RAMLOC_OPCODES(X)
#undef X
};

constexpr const OpSyntax &opSyntax(OpKind Kind) {
  return OpSyntaxTable[static_cast<unsigned>(Kind)];
}

} // namespace ramloc

#endif // RAMLOC_ISA_OPKIND_H
