//===- mir/Verifier.cpp - module well-formedness checks ----------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "mir/Verifier.h"

#include "support/Format.h"

#include <set>

using namespace ramloc;

namespace {

class Verifier {
public:
  Verifier(const Module &M, const VerifierOptions &Opts) : M(M), Opts(Opts) {}

  std::vector<std::string> run() {
    checkModule();
    for (const Function &F : M.Functions)
      checkFunction(F);
    return std::move(Errors);
  }

private:
  void error(const char *Fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list Args;
    va_start(Args, Fmt);
    Errors.push_back(formatStringV(Fmt, Args));
    va_end(Args);
  }

  void checkModule() {
    std::set<std::string> Names;
    for (const Function &F : M.Functions) {
      if (F.Name.empty())
        error("function with empty name");
      if (!Names.insert(F.Name).second)
        error("duplicate function name '%s'", F.Name.c_str());
    }
    std::set<std::string> DataNames;
    for (const DataObject &D : M.Data) {
      if (D.Name.empty())
        error("data object with empty name");
      if (Names.count(D.Name))
        error("data object '%s' shadows a function", D.Name.c_str());
      if (!DataNames.insert(D.Name).second)
        error("duplicate data object '%s'", D.Name.c_str());
      if (D.Align == 0 || (D.Align & (D.Align - 1)) != 0)
        error("data object '%s' has non-power-of-two alignment %u",
              D.Name.c_str(), D.Align);
      if (D.Sect == DataObject::Section::Bss && !D.Bytes.empty())
        error("bss object '%s' must not have initial bytes", D.Name.c_str());
    }
    if (!M.findFunction(M.EntryFunction))
      error("entry function '%s' not found", M.EntryFunction.c_str());
  }

  bool symbolExists(const Function &F, const std::string &Sym) const {
    return F.blockIndex(Sym) >= 0 || M.functionIndex(Sym) >= 0 ||
           M.findData(Sym) != nullptr;
  }

  void checkFunction(const Function &F) {
    if (F.Blocks.empty()) {
      error("function '%s' has no blocks", F.Name.c_str());
      return;
    }
    std::set<std::string> Labels;
    for (const BasicBlock &BB : F.Blocks) {
      if (BB.Label.empty())
        error("%s: block with empty label", F.Name.c_str());
      if (!Labels.insert(BB.Label).second)
        error("%s: duplicate label '%s'", F.Name.c_str(), BB.Label.c_str());
    }

    for (unsigned B = 0, NB = F.Blocks.size(); B != NB; ++B) {
      const BasicBlock &BB = F.Blocks[B];
      if (BB.Instrs.empty()) {
        error("%s:%s: empty block", F.Name.c_str(), BB.Label.c_str());
        continue;
      }
      checkBlock(F, BB, /*IsLast=*/B + 1 == NB);
    }
  }

  void checkBlock(const Function &F, const BasicBlock &BB, bool IsLast) {
    const char *FN = F.Name.c_str();
    const char *BN = BB.Label.c_str();

    unsigned ItRemaining = 0; // instructions still covered by an IT block
    Cond ItCond = Cond::AL;
    bool ItElse = false;

    for (unsigned I = 0, E = BB.Instrs.size(); I != E; ++I) {
      const Instr &In = BB.Instrs[I];
      bool Last = I + 1 == E;

      if (In.isTerminator() && !Last)
        error("%s:%s: terminator '%s' before end of block", FN, BN,
              opMnemonic(In.Kind));

      // IT-block bookkeeping.
      if (In.Kind == OpKind::It) {
        if (ItRemaining != 0)
          error("%s:%s: nested it block", FN, BN);
        ItRemaining = static_cast<unsigned>(In.Imm & 3);
        ItElse = (In.Imm & 4) != 0;
        ItCond = In.CondCode;
        if (ItRemaining == 0 || ItRemaining > 2)
          error("%s:%s: it block with bad length %u", FN, BN, ItRemaining);
        continue;
      }
      if (ItRemaining != 0) {
        Cond Expected = ItCond;
        if (ItElse && ItRemaining == 1)
          Expected = invertCond(ItCond);
        if (In.CondCode != Expected)
          error("%s:%s: instruction %u condition does not match it block",
                FN, BN, I);
        --ItRemaining;
      } else if (In.CondCode != Cond::AL && In.Kind != OpKind::BCond) {
        error("%s:%s: conditional instruction outside it block", FN, BN);
      }

      // Symbol resolution.
      switch (In.Kind) {
      case OpKind::B:
      case OpKind::BCond:
      case OpKind::Cbz:
      case OpKind::Cbnz:
        if (F.blockIndex(In.Sym) < 0)
          error("%s:%s: branch target '%s' not found", FN, BN,
                In.Sym.c_str());
        break;
      case OpKind::Bl:
        if (M.functionIndex(In.Sym) < 0)
          error("%s:%s: call target '%s' not found", FN, BN, In.Sym.c_str());
        break;
      case OpKind::LdrLit:
        if (!In.Sym.empty() && !symbolExists(F, In.Sym))
          error("%s:%s: literal symbol '%s' not found", FN, BN,
                In.Sym.c_str());
        break;
      default:
        break;
      }

      checkOperands(FN, BN, In);

      // Scratch-register discipline (r7 reserved for the instrumenter).
      if (Opts.EnforceScratchDiscipline && F.Optimizable &&
          writesScratch(In))
        error("%s:%s: optimizable function writes reserved scratch r%u", FN,
              BN, static_cast<unsigned>(ScratchReg));
    }

    if (ItRemaining != 0)
      error("%s:%s: it block runs past end of block", FN, BN);

    if (IsLast && !BB.Instrs.back().isTerminator())
      error("%s:%s: function falls through past its last block", FN, BN);
  }

  /// The operand rules the build:: factories assert (isa/Instr.cpp),
  /// which a parsed module can still break.
  void checkOperands(const char *FN, const char *BN, const Instr &In) {
    const char *Name = opMnemonic(In.Kind);
    uint32_t Banned = 0;
    switch (In.Kind) {
    case OpKind::Push:
      Banned = (1u << SP) | (1u << PC);
      break;
    case OpKind::Pop:
      Banned = (1u << SP) | (1u << LR);
      break;
    case OpKind::LdrhImm:
    case OpKind::StrhImm:
      if (In.Imm % 2 != 0)
        error("%s:%s: %s offset #%d is not halfword aligned", FN, BN, Name,
              In.Imm);
      return;
    default:
      return;
    }
    uint32_t Mask = static_cast<uint32_t>(In.Imm);
    if (Mask == 0)
      error("%s:%s: %s with an empty register list", FN, BN, Name);
    for (Reg R : {SP, LR, PC})
      if (Mask & Banned & (1u << R))
        error("%s:%s: %s may not name %s", FN, BN, Name,
              regName(R).c_str());
  }

  /// True if \p In writes ScratchReg. Instrumenter-emitted sequences load
  /// it via LdrLit, which we allow (they are emitted post-verification and
  /// re-verified with the discipline already satisfied by construction).
  static bool writesScratch(const Instr &In) {
    switch (In.Kind) {
    case OpKind::CmpImm:
    case OpKind::CmpReg:
    case OpKind::Tst:
    case OpKind::StrImm:
    case OpKind::StrReg:
    case OpKind::StrbImm:
    case OpKind::StrbReg:
    case OpKind::StrhImm:
    case OpKind::Push:
    case OpKind::B:
    case OpKind::BCond:
    case OpKind::Cbz:
    case OpKind::Cbnz:
    case OpKind::Bl:
    case OpKind::Blx:
    case OpKind::Bx:
    case OpKind::It:
    case OpKind::Nop:
    case OpKind::Wfi:
    case OpKind::Bkpt:
      return false;
    case OpKind::LdrLit:
      return false; // instrumenter-owned; see doc comment
    case OpKind::Pop:
      return (In.Imm & (1 << ScratchReg)) != 0;
    default:
      return In.Regs[0] == ScratchReg;
    }
  }

  const Module &M;
  const VerifierOptions &Opts;
  std::vector<std::string> Errors;
};

} // namespace

std::vector<std::string> ramloc::verifyModule(const Module &M,
                                              const VerifierOptions &Opts) {
  return Verifier(M, Opts).run();
}

bool ramloc::moduleIsValid(const Module &M, const VerifierOptions &Opts) {
  return verifyModule(M, Opts).empty();
}
