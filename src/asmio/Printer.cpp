//===- asmio/Printer.cpp - textual assembly output ----------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "asmio/Printer.h"

#include "support/Format.h"

using namespace ramloc;

namespace {

std::string regListText(uint32_t Mask) {
  std::string Out = "{";
  bool First = true;
  // Emit maximal runs rN-rM for compactness, then sp/lr/pc singles.
  for (unsigned R = 0; R < 16;) {
    if (!(Mask & (1u << R))) {
      ++R;
      continue;
    }
    unsigned End = R;
    while (End + 1 < 13 && (Mask & (1u << (End + 1))))
      ++End;
    if (!First)
      Out += ", ";
    First = false;
    if (End > R + 1) {
      Out += regName(static_cast<Reg>(R)) + "-" +
             regName(static_cast<Reg>(End));
      R = End + 1;
    } else {
      Out += regName(static_cast<Reg>(R));
      ++R;
    }
  }
  Out += "}";
  return Out;
}

std::string mnemonicText(const Instr &I) {
  const OpSyntax &Syn = opSyntax(I.Kind);
  std::string Out = Syn.Mnemonic;
  // The it/ite condition is printed as the operand, not as a suffix.
  if (Syn.Form == OpForm::CondOp)
    return (I.Imm & 4) ? Out + "e" : Out;
  // Compares always set flags; the "s" is implied.
  if (I.SetsFlags && Syn.Form != OpForm::RnImm && Syn.Form != OpForm::RnRm)
    Out += "s";
  if (I.CondCode != Cond::AL)
    Out += condName(I.CondCode);
  return Out;
}

} // namespace

std::string ramloc::printInstr(const Instr &I) {
  std::string Out = mnemonicText(I);
  unsigned NextReg = 0;
  auto reg = [&] { return regName(I.Regs[NextReg++]); };
  const char *Sep = " ";
  for (const char *Op = formOperands(opSyntax(I.Kind).Form); *Op;
       ++Op, Sep = ", ") {
    Out += Sep;
    switch (*Op) {
    case 'r':
    case 'n':
      Out += reg();
      break;
    case '#':
      Out += formatString("#%d", I.Imm);
      break;
    case 'm':
      Out += I.Imm ? formatString("[%s, #%d]", reg().c_str(), I.Imm)
                   : formatString("[%s]", reg().c_str());
      break;
    case 'x': {
      std::string Rn = reg();
      Out += formatString("[%s, %s]", Rn.c_str(), reg().c_str());
      break;
    }
    case '=':
      Out += I.Sym.empty()
                 ? formatString("=0x%x", static_cast<unsigned>(I.Imm))
                 : formatString("=%s", I.Sym.c_str());
      break;
    case '{':
      Out += regListText(static_cast<uint32_t>(I.Imm));
      break;
    case 'l':
      Out += I.Sym;
      break;
    case 'c':
      Out += condName(I.CondCode);
      break;
    }
  }
  return Out;
}

std::string ramloc::printModule(const Module &M) {
  std::string Out;
  Out += formatString(".module %s\n", M.Name.c_str());
  Out += formatString(".entry %s\n", M.EntryFunction.c_str());

  for (const DataObject &D : M.Data) {
    switch (D.Sect) {
    case DataObject::Section::Bss:
      Out += formatString(".bss %s %u %u\n", D.Name.c_str(), D.Size,
                          D.Align);
      continue;
    case DataObject::Section::Rodata:
      Out += formatString(".rodata %s %u ", D.Name.c_str(), D.Align);
      break;
    case DataObject::Section::Data:
      Out += formatString(".data %s %u ", D.Name.c_str(), D.Align);
      break;
    }
    for (uint8_t B : D.Bytes)
      Out += formatString("%02x", B);
    Out += '\n';
  }

  for (const Function &F : M.Functions) {
    Out += formatString("\n.func %s%s\n", F.Name.c_str(),
                        F.Optimizable ? "" : " library");
    for (const BasicBlock &BB : F.Blocks) {
      Out += formatString(".block %s%s\n", BB.Label.c_str(),
                          BB.Home == MemKind::Ram ? " home=ram" : "");
      for (const Instr &I : BB.Instrs)
        Out += "    " + printInstr(I) + "\n";
    }
  }
  return Out;
}
