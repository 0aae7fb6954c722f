//===- core/Figure4.h - the Figure 4 rewrite table --------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figure 4: the sequence that replaces a control transfer
/// crossing the flash/RAM boundary, one row per transfer kind. A row
/// names the transfer it replaces (none for a fall-through) and lists its
/// slots: an instruction, the literal it loads (none, the taken target or
/// the fall-through block) and which executions of the replaced transfer
/// run it (every one, the taken ones or the not-taken ones; the others
/// skip it like a condition-failed instruction in an IT block). A slot's
/// instruction is spelled over CC, the transfer's condition (eq for cbz,
/// ne for cbnz), Rn, the register cbz/cbnz tests, and Sym, the symbol its
/// literal names. r7 is the reserved scratch register (isa/Register.h).
///
/// Three readers walk the rows, so a sequence is spelled here only:
/// applyPlacement emits them, deriveOptimizedProfile matches them in a
/// linked image and counts each slot by its rule, and extractParams
/// prices them (priceFigure4) as Kb, Tb, TbInstr and CallInstr*.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_CORE_FIGURE4_H
#define RAMLOC_CORE_FIGURE4_H

#include "isa/Encoding.h"
#include "isa/Timing.h"
#include "mir/Module.h"

#include <optional>
#include <span>
#include <string>

namespace ramloc {

enum class Figure4Literal : uint8_t { None, Taken, Fall };
enum class Figure4Count : uint8_t { Every, Taken, NotTaken };

/// Builds a slot's instruction from (CC, Rn, Sym). A reader that needs
/// only its shape passes any non-empty Sym.
using Figure4Builder = Instr (*)(Cond CC, Reg Rn, std::string Sym);

struct Figure4Slot {
  Figure4Builder Make;
  Figure4Literal Literal;
  Figure4Count Count;
};

// RAMLOC_FIGURE4_SLOT(instruction, literal, count)
#define RAMLOC_FIGURE4_SLOT(Expr, Lit, Cnt)                                  \
  Figure4Slot {                                                              \
    [](Cond CC [[maybe_unused]], Reg Rn [[maybe_unused]],                    \
       std::string Sym [[maybe_unused]]) -> Instr {                          \
      using namespace build;                                                 \
      return Expr;                                                           \
    },                                                                       \
        Figure4Literal::Lit, Figure4Count::Cnt                               \
  }

/// Every row's slots, end to end.
inline constexpr Figure4Slot Figure4Slots[] = {
    // [0, 2) call: bl f
    RAMLOC_FIGURE4_SLOT(ldrLitSym(ScratchReg, Sym), Taken, Every),
    RAMLOC_FIGURE4_SLOT(blx(ScratchReg), None, Every),
    // [2, 3) unconditional: b L
    RAMLOC_FIGURE4_SLOT(ldrLitSym(PC, Sym), Taken, Every),
    // [3, 8) short conditional: cbz/cbnz rn, L is cmp, then [4, 8)
    RAMLOC_FIGURE4_SLOT(cmpImm(Rn, 0), None, Every),
    // [4, 8) conditional: bcc L. ite is predicated on CC like the loads.
    RAMLOC_FIGURE4_SLOT(ite(CC), None, Taken),
    RAMLOC_FIGURE4_SLOT(withCond(ldrLitSym(ScratchReg, Sym), CC), Taken,
                        Taken),
    RAMLOC_FIGURE4_SLOT(withCond(ldrLitSym(ScratchReg, Sym), invertCond(CC)),
                        Fall, NotTaken),
    RAMLOC_FIGURE4_SLOT(bx(ScratchReg), None, Every),
    // [8, 9) fall-through: nothing
    RAMLOC_FIGURE4_SLOT(ldrLitSym(PC, Sym), Fall, Every),
};

#undef RAMLOC_FIGURE4_SLOT

struct Figure4Row {
  /// The transfer the row replaces (a cbz row also replaces cbnz).
  std::optional<OpKind> Original;
  std::span<const Figure4Slot> Slots;
};

/// The rows of Figure4Table, in order.
enum class Figure4Kind { Call, Branch, CondBranch, CmpBranch, FallThrough };

inline constexpr Figure4Row Figure4Table[] = {
    {OpKind::Bl, {Figure4Slots + 0, 2}},
    {OpKind::B, {Figure4Slots + 2, 1}},
    {OpKind::BCond, {Figure4Slots + 4, 4}},
    {OpKind::Cbz, {Figure4Slots + 3, 5}},
    {std::nullopt, {Figure4Slots + 8, 1}},
};

inline const Figure4Row &figure4Row(Figure4Kind Kind) {
  return Figure4Table[static_cast<unsigned>(Kind)];
}

/// The row replacing a transfer of kind \p Kind, or null.
inline const Figure4Row *figure4RowFor(OpKind Kind) {
  if (Kind == OpKind::Cbnz)
    Kind = OpKind::Cbz;
  for (const Figure4Row &Row : Figure4Table)
    if (Row.Original == Kind)
      return &Row;
  return nullptr;
}

/// The row rewriting the end of \p BB: its terminator's, or the
/// fall-through row when it has none. Null for returns, halts and
/// indirect jumps, which are long-range already.
inline const Figure4Row *figure4RowEnding(const BasicBlock &BB) {
  const Instr *Term = BB.terminator();
  return Term ? figure4RowFor(Term->Kind)
              : &figure4Row(Figure4Kind::FallThrough);
}

/// Slot \p S's instruction in the row replacing \p Transfer (a default
/// Instr for a fall-through), its literal naming \p Sym.
inline Instr figure4Instr(const Figure4Slot &S, const Instr &Transfer,
                          std::string Sym) {
  Cond CC = Transfer.Kind == OpKind::Cbz    ? Cond::EQ
            : Transfer.Kind == OpKind::Cbnz ? Cond::NE
                                            : Transfer.CondCode;
  return S.Make(CC, Transfer.Regs[0], std::move(Sym));
}

/// A row's sequence under a timing model.
struct Figure4Price {
  unsigned Bytes = 0;    ///< instruction bytes
  unsigned Literals = 0; ///< literal-pool words
  /// Cycles when the transfer is taken: a not-taken-only slot is skipped.
  unsigned Cycles = 0;
};

inline Figure4Price priceFigure4(const Figure4Row &Row,
                                 const TimingModel &T) {
  Figure4Price P;
  for (const Figure4Slot &S : Row.Slots) {
    Instr I = S.Make(Cond::EQ, R0, "x");
    P.Bytes += encodingSizeBytes(I);
    P.Literals += S.Literal != Figure4Literal::None;
    P.Cycles += S.Count == Figure4Count::NotTaken ? T.SkippedCycles
                                                  : T.cycles(I, true);
  }
  return P;
}

} // namespace ramloc

#endif // RAMLOC_CORE_FIGURE4_H
