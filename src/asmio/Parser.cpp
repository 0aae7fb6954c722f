//===- asmio/Parser.cpp - textual assembly input ------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "asmio/Parser.h"

#include "support/Format.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <optional>

using namespace ramloc;

namespace {

/// Splits one line into whitespace/comma separated tokens, keeping bracket
/// and brace groups intact: "ldr r0, [r1, #4]" -> {"ldr","r0","[r1,#4]"}.
std::vector<std::string> tokenizeLine(std::string_view Line) {
  std::vector<std::string> Tokens;
  std::string Cur;
  int GroupDepth = 0;
  for (char C : Line) {
    if (C == ';') // comment to end of line
      break;
    GroupDepth += (C == '[' || C == '{') - (C == ']' || C == '}');
    bool Space = std::isspace(static_cast<unsigned char>(C));
    if (GroupDepth == 0 && (Space || C == ',')) {
      if (!Cur.empty())
        Tokens.push_back(std::move(Cur));
      Cur.clear();
    } else if (!Space || GroupDepth < 0) { // drop spaces inside groups
      Cur += C;
    }
  }
  if (!Cur.empty())
    Tokens.push_back(Cur);
  return Tokens;
}

class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  ParseResult run() {
    unsigned LineNo = 0;
    size_t Pos = 0;
    while (Pos < Text.size()) {
      size_t Eol = Text.find('\n', Pos);
      if (Eol == std::string_view::npos)
        Eol = Text.size();
      ++LineNo;
      parseLine(LineNo, Text.substr(Pos, Eol - Pos));
      Pos = Eol + 1;
    }
    return std::move(Result);
  }

private:
  void error(unsigned LineNo, const std::string &Msg) {
    Result.Errors.push_back(formatString("line %u: %s", LineNo, Msg.c_str()));
  }

  Function *currentFunction() {
    if (Result.M.Functions.empty())
      return nullptr;
    return &Result.M.Functions.back();
  }

  BasicBlock *currentBlock() {
    Function *F = currentFunction();
    if (!F || F->Blocks.empty())
      return nullptr;
    return &F->Blocks.back();
  }

  void parseLine(unsigned LineNo, std::string_view Line) {
    std::vector<std::string> Tok = tokenizeLine(Line);
    if (Tok.empty())
      return;
    if (Tok[0][0] == '.') {
      parseDirective(LineNo, Tok);
      return;
    }
    BasicBlock *BB = currentBlock();
    if (!BB) {
      error(LineNo, "instruction outside of a block");
      return;
    }
    if (auto I = parseInstr(LineNo, Tok))
      BB->Instrs.push_back(std::move(*I));
  }

  // --- directives --------------------------------------------------------

  void parseDirective(unsigned LineNo, const std::vector<std::string> &Tok) {
    const std::string &D = Tok[0];
    if (D == ".module") {
      if (Tok.size() == 2)
        Result.M.Name = Tok[1];
      else
        error(LineNo, ".module expects a name");
      return;
    }
    if (D == ".entry") {
      if (Tok.size() == 2)
        Result.M.EntryFunction = Tok[1];
      else
        error(LineNo, ".entry expects a function name");
      return;
    }
    if (D == ".rodata" || D == ".data") {
      if (Tok.size() < 3 || Tok.size() > 4) {
        error(LineNo, D + " expects: name align [hexbytes]");
        return;
      }
      DataObject Obj;
      Obj.Name = Tok[1];
      Obj.Sect = D == ".rodata" ? DataObject::Section::Rodata
                                : DataObject::Section::Data;
      if (!parseField(LineNo, Tok[2], Obj.Align))
        return;
      if (Tok.size() == 4 && !parseHexBytes(Tok[3], Obj.Bytes)) {
        error(LineNo, "bad hex byte string");
        return;
      }
      Result.M.Data.push_back(std::move(Obj));
      return;
    }
    if (D == ".bss") {
      if (Tok.size() != 4) {
        error(LineNo, ".bss expects: name size align");
        return;
      }
      DataObject Obj;
      Obj.Name = Tok[1];
      Obj.Sect = DataObject::Section::Bss;
      if (!parseField(LineNo, Tok[2], Obj.Size) ||
          !parseField(LineNo, Tok[3], Obj.Align))
        return;
      Result.M.Data.push_back(std::move(Obj));
      return;
    }
    if (D == ".func") {
      if (Tok.size() < 2 || Tok.size() > 3) {
        error(LineNo, ".func expects: name [library]");
        return;
      }
      Function F(Tok[1]);
      if (Tok.size() == 3) {
        if (Tok[2] == "library")
          F.Optimizable = false;
        else
          error(LineNo, "unknown .func attribute '" + Tok[2] + "'");
      }
      Result.M.Functions.push_back(std::move(F));
      return;
    }
    if (D == ".block") {
      Function *F = currentFunction();
      if (!F) {
        error(LineNo, ".block outside of a function");
        return;
      }
      if (Tok.size() < 2 || Tok.size() > 3) {
        error(LineNo, ".block expects: label [home=ram]");
        return;
      }
      BasicBlock BB(Tok[1]);
      if (Tok.size() == 3) {
        if (Tok[2] == "home=ram")
          BB.Home = MemKind::Ram;
        else if (Tok[2] == "home=flash")
          BB.Home = MemKind::Flash;
        else
          error(LineNo, "unknown .block attribute '" + Tok[2] + "'");
      }
      F->Blocks.push_back(std::move(BB));
      return;
    }
    error(LineNo, "unknown directive '" + D + "'");
  }

  static bool parseHexBytes(const std::string &S,
                            std::vector<uint8_t> &Out) {
    if (S.size() % 2 != 0)
      return false;
    for (const char *P = S.data(), *End = P + S.size(); P != End; P += 2) {
      uint8_t Byte = 0;
      if (std::from_chars(P, P + 2, Byte, 16).ptr != P + 2)
        return false;
      Out.push_back(Byte);
    }
    return true;
  }

  /// Parses a whole token as a 32-bit integer, read as strtol's base 0
  /// reads it (decimal, 0x hex, 0 octal, optional sign); "0xffffffff" is
  /// -1. Text past the number or bits past 32 are an error.
  bool parseInt(unsigned LineNo, const std::string &Text, int32_t &Out) {
    errno = 0;
    char *End = nullptr;
    long long V = std::strtoll(Text.c_str(), &End, 0);
    if (End == Text.c_str() || *End || errno == ERANGE || V < INT32_MIN ||
        V > static_cast<long long>(UINT32_MAX)) {
      error(LineNo, "bad integer '" + Text + "'");
      return false;
    }
    Out = static_cast<int32_t>(static_cast<uint32_t>(V));
    return true;
  }

  /// Parses a whole token as an unsigned decimal 32-bit directive field.
  bool parseField(unsigned LineNo, const std::string &Text, uint32_t &Out) {
    const char *End = Text.data() + Text.size();
    auto [Ptr, Ec] = std::from_chars(Text.data(), End, Out);
    if (Ec == std::errc() && Ptr == End)
      return true;
    error(LineNo, "bad number '" + Text + "'");
    return false;
  }

  // --- operands -----------------------------------------------------------

  /// One operand. Its kind is the letter of the form slot it fills (see
  /// RAMLOC_OP_FORMS); a bare identifier is 'l'.
  struct Operand {
    char K = 0;
    Reg R = R0;      ///< register, or a memory operand's base
    Reg Index = R0;  ///< a memory operand's index register ('x')
    int32_t Imm = 0; ///< immediate, offset, literal constant or list mask
    std::string Sym; ///< label, condition or literal symbol
  };

  std::optional<Operand> parseOperand(unsigned LineNo,
                                      const std::string &Tok) {
    Operand Op;
    Op.K = Tok[0];
    if (Tok[0] == '#') {
      if (!parseInt(LineNo, Tok.substr(1), Op.Imm))
        return std::nullopt;
      return Op;
    }
    if (Tok[0] == '=') {
      Op.Sym = Tok.substr(1);
      if (Op.Sym.empty() ||
          !(std::isdigit(static_cast<unsigned char>(Op.Sym[0])) ||
            Op.Sym[0] == '-'))
        return Op;
      if (!parseInt(LineNo, Op.Sym, Op.Imm))
        return std::nullopt;
      Op.Sym.clear();
      return Op;
    }
    if (Tok[0] == '[') {
      if (Tok.back() != ']') {
        error(LineNo, "unterminated memory operand");
        return std::nullopt;
      }
      std::string Inner = Tok.substr(1, Tok.size() - 2);
      // Split on the comma we preserved inside the group.
      size_t Comma = Inner.find(',');
      std::string BaseText =
          Comma == std::string::npos ? Inner : Inner.substr(0, Comma);
      Op.R = parseRegName(BaseText);
      if (Op.R == NumRegs) {
        error(LineNo, "bad base register '" + BaseText + "'");
        return std::nullopt;
      }
      Op.K = 'm';
      if (Comma == std::string::npos)
        return Op;
      std::string OffText = Inner.substr(Comma + 1);
      if (!OffText.empty() && OffText[0] == '#') {
        if (!parseInt(LineNo, OffText.substr(1), Op.Imm))
          return std::nullopt;
        return Op;
      }
      Op.K = 'x';
      Op.Index = parseRegName(OffText);
      if (Op.Index == NumRegs) {
        error(LineNo, "bad index '" + OffText + "'");
        return std::nullopt;
      }
      return Op;
    }
    if (Tok[0] == '{') {
      if (Tok.back() != '}') {
        error(LineNo, "unterminated register list");
        return std::nullopt;
      }
      std::string Inner = Tok.substr(1, Tok.size() - 2);
      size_t Pos = 0;
      while (Pos < Inner.size()) {
        size_t Comma = Inner.find(',', Pos);
        std::string Item = Inner.substr(
            Pos, Comma == std::string::npos ? std::string::npos
                                            : Comma - Pos);
        size_t Dash = Item.find('-');
        if (Dash == std::string::npos) {
          Reg R = parseRegName(Item);
          if (R == NumRegs) {
            error(LineNo, "bad register '" + Item + "' in list");
            return std::nullopt;
          }
          Op.Imm |= 1 << R;
        } else {
          Reg Lo = parseRegName(Item.substr(0, Dash));
          Reg Hi = parseRegName(Item.substr(Dash + 1));
          if (Lo == NumRegs || Hi == NumRegs || Lo > Hi) {
            error(LineNo, "bad register range '" + Item + "'");
            return std::nullopt;
          }
          for (unsigned R = Lo; R <= Hi; ++R)
            Op.Imm |= 1 << R;
        }
        if (Comma == std::string::npos)
          break;
        Pos = Comma + 1;
      }
      return Op;
    }
    Op.R = parseRegName(Tok);
    Op.K = Op.R == NumRegs ? 'l' : 'r';
    Op.Sym = Tok;
    return Op;
  }

  // --- instructions -------------------------------------------------------

  struct Suffix {
    bool S = false;
    Cond C = Cond::AL;
    bool Else = false; ///< "ite" rather than "it"
  };

  /// Reads what follows a mnemonic as \p Form allows (see RAMLOC_OP_FORMS):
  /// "s" and a condition for data and memory forms, a condition for
  /// CondLabel, "e" for CondOp (ite) and nothing for the rest.
  static std::optional<Suffix> splitSuffix(OpForm Form,
                                           std::string_view Rest) {
    Suffix Out;
    if (Form == OpForm::CondOp) {
      Out.Else = Rest == "e";
      return Rest.empty() || Out.Else ? std::optional(Out) : std::nullopt;
    }
    bool DataOrMemory = Form < OpForm::RegList;
    if (DataOrMemory && !Rest.empty() && Rest[0] == 's') {
      Out.S = true;
      Rest.remove_prefix(1);
    }
    if (Rest.empty() ? Form == OpForm::CondLabel
                     : !DataOrMemory && Form != OpForm::CondLabel)
      return std::nullopt;
    if (!parseCondName(std::string(Rest), Out.C))
      return std::nullopt;
    return Out;
  }

  /// True when \p Ops are the operand kinds \p Form spells.
  static bool fits(OpForm Form, const std::vector<Operand> &Ops) {
    std::string_view Slots = formOperands(Form);
    if (Slots.size() != Ops.size())
      return false;
    for (size_t I = 0; I != Ops.size(); ++I)
      if (Ops[I].K != Slots[I] && !(Slots[I] == 'n' && Ops[I].K == 'r') &&
          !(Slots[I] == 'c' && Ops[I].K == 'l'))
        return false;
    return true;
  }

  /// The operands \p Form expects, as an error message spells them.
  static std::string expectedText(OpForm Form) {
    static constexpr std::string_view Slots = "rn#mx={lc";
    static const char *const Names[] = {
        "reg",  "r0-r7", "#imm",   "[rn, #imm]", "[rn, rm]",
        "=lit", "{regs}", "label", "cond"};
    std::string Out;
    for (const char *Slot = formOperands(Form); *Slot; ++Slot)
      Out += (Out.empty() ? "" : ", ") + std::string(Names[Slots.find(*Slot)]);
    return Out.empty() ? "no operands" : Out;
  }

  /// The opcodes whose mnemonic and suffix spell \p Word. The longest
  /// mnemonic wins, so "ldrhs" is ldrh + s rather than ldr + hs.
  static std::vector<std::pair<OpKind, Suffix>>
  opcodesSpelling(std::string_view Word) {
    std::vector<std::pair<OpKind, Suffix>> Rows;
    size_t Len = 0;
    for (unsigned K = 0; K != NumOpKinds; ++K) {
      const OpSyntax &Syn = OpSyntaxTable[K];
      std::string_view Mn = Syn.Mnemonic;
      if (Mn.size() < Len || Word.substr(0, Mn.size()) != Mn)
        continue;
      auto Sfx = splitSuffix(Syn.Form, Word.substr(Mn.size()));
      if (!Sfx)
        continue;
      if (Mn.size() > Len)
        Rows.clear();
      Len = Mn.size();
      Rows.emplace_back(static_cast<OpKind>(K), *Sfx);
    }
    return Rows;
  }

  /// Parses one instruction: the first opcode spelling the mnemonic whose
  /// form fits the operands, filled slot by slot.
  std::optional<Instr> parseInstr(unsigned LineNo,
                                  const std::vector<std::string> &Tok) {
    auto Fail = [&](const std::string &Msg) -> std::optional<Instr> {
      error(LineNo, formatString("%s: %s", Tok[0].c_str(), Msg.c_str()));
      return std::nullopt;
    };
    auto Rows = opcodesSpelling(Tok[0]);
    if (Rows.empty()) {
      error(LineNo, "unknown mnemonic '" + Tok[0] + "'");
      return std::nullopt;
    }

    std::vector<Operand> Ops, Shorthand;
    for (unsigned I = 1, E = Tok.size(); I != E; ++I) {
      auto Op = parseOperand(LineNo, Tok[I]);
      if (!Op)
        return std::nullopt;
      Ops.push_back(std::move(*Op));
    }
    // "add rd, x" is short for "add rd, rd, x".
    if (Ops.size() == 2 && Ops[0].K == 'r')
      Shorthand = {Ops[0], Ops[0], Ops[1]};

    for (const auto &[Kind, Sfx] : Rows) {
      const OpSyntax &Syn = opSyntax(Kind);
      bool Short = !Shorthand.empty() && (Syn.Form == OpForm::RdRnImm ||
                                          Syn.Form == OpForm::RdRnRm);
      const std::vector<Operand> &Use = Short ? Shorthand : Ops;
      if (!fits(Syn.Form, Use))
        continue;
      Instr I;
      I.Kind = Kind;
      I.CondCode = Sfx.C;
      I.SetsFlags =
          Sfx.S || Syn.Form == OpForm::RnImm || Syn.Form == OpForm::RnRm;
      if (Syn.Form == OpForm::CondOp)
        I.Imm = Sfx.Else ? 2 | 4 : 1;
      unsigned NextReg = 0;
      for (size_t S = 0; S != Use.size(); ++S) {
        const Operand &Op = Use[S];
        switch (formOperands(Syn.Form)[S]) {
        case 'n':
          if (!isLowReg(Op.R))
            return Fail("requires a low register");
          [[fallthrough]];
        case 'r':
          I.Regs[NextReg++] = Op.R;
          break;
        case 'x':
          I.Regs[NextReg++] = Op.R;
          I.Regs[NextReg++] = Op.Index;
          break;
        case 'm':
          I.Regs[NextReg++] = Op.R;
          [[fallthrough]];
        case '#':
          if (Op.Imm < Syn.ImmLo || Op.Imm > Syn.ImmHi)
            return Fail(formatString("#%d out of range [%d, %d]", Op.Imm,
                                     Syn.ImmLo, Syn.ImmHi));
          I.Imm = Op.Imm;
          break;
        case '=':
        case '{':
          I.Imm = Op.Imm;
          I.Sym = Op.Sym;
          break;
        case 'l':
          I.Sym = Op.Sym;
          break;
        case 'c':
          if (!parseCondName(Op.Sym, I.CondCode) || I.CondCode == Cond::AL)
            return Fail("bad condition '" + Op.Sym + "'");
          break;
        }
      }
      return I;
    }
    std::string Expected;
    for (const auto &Row : Rows)
      Expected += (Expected.empty() ? "" : " | ") +
                  expectedText(opSyntax(Row.first).Form);
    return Fail("expects " + Expected);
  }

  std::string_view Text;
  ParseResult Result;
};

} // namespace

ParseResult ramloc::parseAssembly(std::string_view Text) {
  return Parser(Text).run();
}
