//===- tests/AsmRoundTripTest.cpp - parser/printer round trips -------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "asmio/Parser.h"
#include "asmio/Printer.h"
#include "beebs/Beebs.h"

#include <gtest/gtest.h>

using namespace ramloc;
using namespace ramloc::build;

namespace {

/// print -> parse -> print must be a fixed point, and the parsed module
/// must hold the very instructions that were printed.
void expectRoundTrip(const Module &M) {
  std::string First = printModule(M);
  ParseResult PR = parseAssembly(First);
  ASSERT_TRUE(PR.ok()) << PR.Errors.front() << "\nin:\n" << First;
  std::string Second = printModule(PR.M);
  EXPECT_EQ(First, Second);
  ASSERT_EQ(PR.M.Functions.size(), M.Functions.size());
  for (size_t F = 0; F != M.Functions.size(); ++F) {
    const auto &Want = M.Functions[F].Blocks, &Got = PR.M.Functions[F].Blocks;
    ASSERT_EQ(Got.size(), Want.size()) << M.Functions[F].Name;
    for (size_t B = 0; B != Want.size(); ++B) {
      ASSERT_EQ(Got[B].Instrs.size(), Want[B].Instrs.size());
      for (size_t I = 0; I != Want[B].Instrs.size(); ++I)
        EXPECT_TRUE(Got[B].Instrs[I] == Want[B].Instrs[I])
            << Want[B].Label << "[" << I
            << "]: " << printInstr(Want[B].Instrs[I]);
    }
  }
}

/// Parses \p Line as the fourth line of a module, after a valid `nop`.
ParseResult parseLine(const std::string &Line) {
  return parseAssembly(".func f\n.block a\n    nop\n    " + Line + "\n");
}

/// One builder-made sample of every opcode, plus the set-flags and
/// condition variants the printer spells as suffixes.
std::vector<Instr> opcodeSamples() {
  return {
      movImm(R0, 0xFFFF),      movReg(R1, R2),
      mvn(R3, R4),             addImm(R0, R1, 4095),
      addReg(R0, R1, R2),      subImm(R2, R3, 1),
      subReg(R4, R5, R6),      rsb(R0, R1, -5),
      adc(R0, R1, R2),         sbc(R3, R4, R5),
      mul(R0, R1, R2),         mla(R0, R1, R2, R3),
      udiv(R8, R9, R10),       sdiv(R11, R12, R0),
      andReg(R0, R1, R2),      orrReg(R0, R1, R2),
      eorReg(R0, R1, R2),      bicReg(R0, R1, R2),
      andImm(R0, R1, 0xFF),    orrImm(R0, R1, -1),
      eorImm(R0, R1, 0x7FFFFFFF), bicImm(R0, R1, 3),
      lslImm(R0, R1, 31),      lsrImm(R0, R1, 32),
      asrImm(R0, R1, 1),       lslReg(R0, R1, R2),
      lsrReg(R0, R1, R2),      asrReg(R0, R1, R2),
      rorReg(R0, R1, R2),      cmpImm(R0, 4095),
      cmpReg(R0, R1),          tst(R2, R3),
      uxtb(R0, R1),            uxth(R0, R1),
      sxtb(R0, R1),            sxth(R0, R1),
      ldrImm(R0, R1, 0),       ldrImm(R0, SP, 4095),
      ldrReg(R0, R1, R2),      strImm(R0, SP, 4),
      strReg(R0, R1, R2),      ldrbImm(R0, R1, 1),
      ldrbReg(R0, R1, R2),     strbImm(R0, R1, 3),
      strbReg(R0, R1, R2),     ldrhImm(R0, R1, 2),
      strhImm(R0, R1, 4094),   ldrLitSym(R5, "tab"),
      ldrLitConst(R5, -1),     ldrLitConst(R6, 0x1234),
      push((1u << R4) | (1u << R5) | (1u << LR)),
      pop(0xF0 | (1u << PC)),  push(0x1FFF | (1u << LR)),
      b("x"),                  bCond(Cond::LE, "x"),
      cbz(R7, "x"),            cbnz(R0, "x"),
      bl("f"),                 blx(R3),
      bx(LR),                  it(Cond::NE),
      ite(Cond::EQ),           nop(),
      wfi(),                   bkpt(),
      // Suffixes: "adds", "lsls", "moveq", "ldrne pc", "subsgt",
      // "ldrhcs" (ldrh + cs), "ldrhs" (ldrh + s, not ldr + hs),
      // "strhi" (str + hi), "cmpeq".
      setS(addImm(R0, R0, 1)), setS(lslImm(R0, R1, 2)),
      setS(ldrhImm(R0, R1, 2)),
      withCond(movImm(R0, 1), Cond::EQ),
      withCond(ldrLitSym(PC, "x"), Cond::NE),
      setS(withCond(subReg(R0, R1, R2), Cond::GT)),
      withCond(ldrhImm(R0, R1, 2), Cond::CS),
      withCond(strImm(R0, R1, 8), Cond::HI),
      withCond(cmpImm(R0, 1), Cond::EQ),
  };
}

} // namespace

TEST(Printer, InstructionSyntax) {
  EXPECT_EQ(printInstr(movImm(R0, 5)), "mov r0, #5");
  EXPECT_EQ(printInstr(setS(addReg(R0, R1, R2))), "adds r0, r1, r2");
  EXPECT_EQ(printInstr(cmpImm(R3, 7)), "cmp r3, #7");
  EXPECT_EQ(printInstr(ldrImm(R0, R1, 8)), "ldr r0, [r1, #8]");
  EXPECT_EQ(printInstr(ldrImm(R0, R1, 0)), "ldr r0, [r1]");
  EXPECT_EQ(printInstr(ldrReg(R0, R1, R2)), "ldr r0, [r1, r2]");
  EXPECT_EQ(printInstr(ldrLitSym(R5, "table")), "ldr r5, =table");
  EXPECT_EQ(printInstr(ldrLitConst(R5, 0x1234)), "ldr r5, =0x1234");
  EXPECT_EQ(printInstr(ldrLitSym(PC, "loop")), "ldr pc, =loop");
  EXPECT_EQ(printInstr(push((1u << R4) | (1u << R5) | (1u << LR))),
            "push {r4, r5, lr}");
  EXPECT_EQ(printInstr(pop((1u << R4) | (1u << PC))), "pop {r4, pc}");
  EXPECT_EQ(printInstr(push(0xF0 | (1u << LR))), "push {r4-r7, lr}");
  EXPECT_EQ(printInstr(bCond(Cond::NE, "loop")), "bne loop");
  EXPECT_EQ(printInstr(bCond(Cond::LS, "x")), "bls x");
  EXPECT_EQ(printInstr(cbz(R2, "out")), "cbz r2, out");
  EXPECT_EQ(printInstr(bl("fn")), "bl fn");
  EXPECT_EQ(printInstr(bx(LR)), "bx lr");
  EXPECT_EQ(printInstr(ite(Cond::EQ)), "ite eq");
  EXPECT_EQ(printInstr(withCond(ldrLitSym(R7, "a"), Cond::EQ)),
            "ldreq r7, =a");
  EXPECT_EQ(printInstr(mla(R0, R1, R2, R3)), "mla r0, r1, r2, r3");
  EXPECT_EQ(printInstr(lslImm(R0, R1, 4)), "lsl r0, r1, #4");
  EXPECT_EQ(printInstr(uxtb(R0, R1)), "uxtb r0, r1");
}

TEST(Parser, MnemonicDisambiguation) {
  // "bls" is branch-if-lower-or-same, not bl + s.
  ParseResult PR = parseAssembly(".module m\n.entry f\n.func f\n"
                                 ".block a\n    bls a\n");
  ASSERT_TRUE(PR.ok()) << PR.Errors.front();
  EXPECT_EQ(PR.M.Functions[0].Blocks[0].Instrs[0].Kind, OpKind::BCond);
  EXPECT_EQ(PR.M.Functions[0].Blocks[0].Instrs[0].CondCode, Cond::LS);

  // "bics" is bic + set-flags.
  PR = parseAssembly(".module m\n.entry f\n.func f\n"
                     ".block a\n    bics r0, r0, r1\n    bx lr\n");
  ASSERT_TRUE(PR.ok()) << PR.Errors.front();
  EXPECT_EQ(PR.M.Functions[0].Blocks[0].Instrs[0].Kind, OpKind::BicReg);
  EXPECT_TRUE(PR.M.Functions[0].Blocks[0].Instrs[0].SetsFlags);
}

TEST(Parser, Errors) {
  ParseResult PR = parseAssembly("mov r0, #1\n");
  EXPECT_FALSE(PR.ok()); // instruction outside a block

  PR = parseAssembly(".func f\n.block a\n    frobnicate r0\n");
  ASSERT_FALSE(PR.ok());
  EXPECT_NE(PR.Errors[0].find("unknown mnemonic"), std::string::npos);

  PR = parseAssembly(".func f\n.block a\n    mov r0, #99999999\n");
  EXPECT_FALSE(PR.ok());

  PR = parseAssembly(".func f\n.block a\n    ldr r0, [r1\n");
  EXPECT_FALSE(PR.ok());

  PR = parseAssembly(".bogus x\n");
  ASSERT_FALSE(PR.ok());
  EXPECT_NE(PR.Errors[0].find("unknown directive"), std::string::npos);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  ParseResult PR = parseAssembly("\n\n.func f\n.block a\n    zap\n");
  ASSERT_FALSE(PR.ok());
  EXPECT_NE(PR.Errors[0].find("line 5"), std::string::npos);
}

TEST(Parser, Comments) {
  ParseResult PR = parseAssembly(
      "; leading comment\n.module m\n.entry f\n.func f\n"
      ".block a ; trailing\n    mov r0, #1 ; set result\n    bx lr\n");
  ASSERT_TRUE(PR.ok()) << PR.Errors.front();
  EXPECT_EQ(PR.M.Functions[0].Blocks[0].Instrs.size(), 2u);
}

TEST(Parser, DataDirectives) {
  ParseResult PR = parseAssembly(
      ".module m\n.entry f\n.rodata tab 4 0a0b0c0d\n.data var 4 01000000\n"
      ".bss buf 32 8\n.func f\n.block a\n    bx lr\n");
  ASSERT_TRUE(PR.ok()) << PR.Errors.front();
  ASSERT_EQ(PR.M.Data.size(), 3u);
  EXPECT_EQ(PR.M.Data[0].Bytes.size(), 4u);
  EXPECT_EQ(PR.M.Data[0].Bytes[0], 0x0A);
  EXPECT_EQ(PR.M.Data[1].Sect, DataObject::Section::Data);
  EXPECT_EQ(PR.M.Data[2].Size, 32u);
  EXPECT_EQ(PR.M.Data[2].Align, 8u);
}

TEST(Parser, TwoOperandShorthand) {
  ParseResult PR = parseAssembly(".func f\n.block a\n    add r0, r1\n"
                                 "    bx lr\n");
  ASSERT_TRUE(PR.ok()) << PR.Errors.front();
  const Instr &I = PR.M.Functions[0].Blocks[0].Instrs[0];
  EXPECT_EQ(I.Kind, OpKind::AddReg);
  EXPECT_EQ(I.Regs[0], R0);
  EXPECT_EQ(I.Regs[1], R0);
  EXPECT_EQ(I.Regs[2], R1);
}

TEST(Parser, HomeAndLibraryAttributes) {
  ParseResult PR = parseAssembly(
      ".module m\n.entry f\n.func f library\n.block a home=ram\n"
      "    bx lr\n");
  ASSERT_TRUE(PR.ok()) << PR.Errors.front();
  EXPECT_FALSE(PR.M.Functions[0].Optimizable);
  EXPECT_EQ(PR.M.Functions[0].Blocks[0].Home, MemKind::Ram);
}

TEST(Parser, RejectsEachMalformedLine) {
  // One line per way the parser refuses an instruction. Each must be
  // refused and the error must name line 4, where the line sits.
  const char *const Lines[] = {
      // operand syntax
      "ldr r0, [r1", "ldr r0, [q1]", "ldr r0, [r1, q2]", "push {r4",
      "push {q4}", "push {r7-r4}", "frobnicate r0", "bleq f", "pushs {r4}",
      // immediates out of range
      "mov r0, #65536", "mov r0, #-1", "cmp r0, #4096", "cmp r0, #-1",
      "add r0, r1, #4096", "sub r0, r1, #-1", "add r0, #4096",
      "lsl r0, r1, #32", "lsl r0, r1, #-1", "lsr r0, r1, #0",
      "lsr r0, r1, #33", "asr r0, r1, #0", "asr r0, r1, #33",
      "ldr r0, [r1, #4096]", "str r0, [r1, #-4]", "ldrb r0, [r1, #5000]",
      "strb r0, [r1, #-1]", "ldrh r0, [r1, #4096]", "strh r0, [r1, #-2]",
      // operand kinds the opcode has no form for
      "rsb r0, r1, r2", "adc r0, r1, #1", "sbc r0, r1, #1",
      "mul r0, r1, #1", "udiv r0, r1, #1", "sdiv r0, r1, #1",
      "ror r0, r1, #1", "mvn r0, #1", "tst r0, #1", "mla r0, r1, r2, #3",
      "ldrh r0, [r1, r2]", "strh r0, [r1, r2]", "str r0, =x",
      "strb r0, =4", "ldr r0, r1", "ldr #1, [r1]", "mov #1, r0",
      "mov r0, =x", "cmp r0, =x", "add r0, r1, =x", "add #1, r0, r1",
      "b r0", "bne #4", "bl r0", "bx foo", "cbnz r0, r1", "it r0",
      "push r4", "pop lr",
      // register and condition constraints
      "cbz r8, x", "cbnz sp, x", "it al", "ite xx",
      // wrong operand counts
      "mov r0", "mov r0, r1, r2", "mvn r0", "uxtb r0", "sxth r0, r1, r2",
      "cmp r0", "tst r0, r1, r2", "mla r0, r1, r2", "add r0",
      "add r0, r1, r2, r3", "ldr r0", "ldr r0, [r1], r2", "push",
      "pop {r4}, {r5}", "b", "b x, y", "bl", "bx", "blx lr, r0", "cbz r0",
      "it", "it eq, ne",
  };
  for (const char *Line : Lines) {
    ParseResult PR = parseLine(Line);
    ASSERT_FALSE(PR.ok()) << "accepted: " << Line;
    EXPECT_NE(PR.Errors.front().find("line 4:"), std::string::npos)
        << Line << " -> " << PR.Errors.front();
  }
}

TEST(Parser, IntegersAreWholeTokensOf32Bits) {
  // Digits past a number and bits past 32 are errors, not dropped.
  const char *const Bad[] = {
      "    mov r0, #4294967297\n",     "    mov r0, #12abc\n",
      "    and r0, r0, #0x100000000\n", "    ldr r0, [r1, #4294967300]\n",
      "    ldr r0, [r1, #4x]\n",        "    ldr r0, =4294967296\n",
      "    ldr r0, =12abc\n",           "    ldr r0, =-\n",
      "    mov r0, #\n",                ".data d 4x 00\n",
      ".rodata r 4294967296 00\n",    ".bss b 12abc 4\n",
      ".bss b 4 4294967300\n",        ".bss b -4 4\n",
  };
  for (const char *Text : Bad) {
    ParseResult PR = parseAssembly(std::string(".func f\n.block a\n") + Text);
    ASSERT_FALSE(PR.ok()) << "accepted: " << Text;
    EXPECT_NE(PR.Errors.front().find("line 3:"), std::string::npos)
        << Text << " -> " << PR.Errors.front();
  }

  ParseResult PR = parseAssembly(
      ".module m\n.entry f\n.rodata r 4 00\n.bss b 4294967295 8\n"
      ".func f\n.block a\n    mov r0, #0x10\n    and r0, r0, #0xffffffff\n"
      "    ldr r1, =0x1234\n    ldr r2, =0xffffffff\n    bx lr\n");
  ASSERT_TRUE(PR.ok()) << PR.Errors.front();
  EXPECT_EQ(PR.M.Data[1].Size, 4294967295u);
  const std::vector<Instr> &Is = PR.M.Functions[0].Blocks[0].Instrs;
  EXPECT_TRUE(Is[0] == movImm(R0, 16));
  EXPECT_TRUE(Is[1] == andImm(R0, R0, -1));
  EXPECT_TRUE(Is[2] == ldrLitConst(R1, 0x1234));
  EXPECT_TRUE(Is[3] == ldrLitConst(R2, -1));
}

TEST(Parser, OperandlessOpcodesTakeNoOperands) {
  for (const char *Line : {"nop r0", "wfi lr", "bkpt #3"}) {
    ParseResult PR = parseLine(Line);
    ASSERT_FALSE(PR.ok()) << "accepted: " << Line;
    EXPECT_NE(PR.Errors.front().find("line 4:"), std::string::npos)
        << Line << " -> " << PR.Errors.front();
  }
}

TEST(RoundTrip, EveryOpcodeParsesBackToTheSameInstr) {
  std::vector<Instr> Samples = opcodeSamples();
  std::vector<bool> Seen(NumOpKinds);
  for (const Instr &I : Samples)
    Seen[static_cast<unsigned>(I.Kind)] = true;
  for (unsigned K = 0; K != NumOpKinds; ++K)
    EXPECT_TRUE(Seen[K]) << "no sample of " << opMnemonic(OpKind(K))
                         << " (OpKind " << K << ")";

  Module M;
  M.Name = "every_opcode";
  M.EntryFunction = "f";
  Function F("f");
  BasicBlock A("entry");
  A.Instrs = Samples;
  F.Blocks = {A};
  M.Functions.push_back(F);
  expectRoundTrip(M);
}

TEST(RoundTrip, HandWrittenKitchenSink) {
  Module M;
  M.Name = "sink";
  M.EntryFunction = "f";
  M.addRodataWords("tab", {0xDEADBEEF, 1});
  M.addBss("buf", 16);
  Function F("f");
  BasicBlock A("entry");
  A.Instrs = {
      push((1u << R4) | (1u << LR)),
      movImm(R0, 0),
      ldrLitSym(R4, "tab"),
      ldrImm(R1, R4, 4),
      setS(subImm(R1, R1, 1)),
      bCond(Cond::NE, "entry"),
  };
  BasicBlock B2("more");
  B2.Instrs = {
      mla(R0, R1, R2, R3),   udiv(R2, R2, R3),
      sxtb(R1, R1),          uxth(R2, R2),
      strbImm(R0, R4, 3),    ldrhImm(R0, R4, 2),
      rorReg(R0, R0, R1),    mvn(R5, R6),
      adc(R0, R0, R1),       sbc(R0, R0, R1),
      tst(R0, R1),           andImm(R0, R0, 0xFF),
      cbnz(R2, "more"),
  };
  BasicBlock C("fin");
  C.Instrs = {pop((1u << R4) | (1u << PC))};
  F.Blocks = {A, B2, C};
  M.Functions.push_back(F);
  expectRoundTrip(M);
}

// Round-trip every BEEBS benchmark at every level: a broad structural
// property over realistic modules.
class BeebsRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BeebsRoundTrip, ParsesBackToTheSameInstrs) {
  const BeebsInfo &Info = beebsSuite()[std::get<0>(GetParam())];
  OptLevel L = AllOptLevels[std::get<1>(GetParam())];
  Module M = Info.Build(L, 2);
  expectRoundTrip(M);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BeebsRoundTrip,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Range(0, 5)),
    [](const auto &Info) {
      // gtest names must be identifiers: prefix so "2dfir" is legal.
      return "B" + std::string(beebsSuite()[std::get<0>(Info.param)].Name) +
             "_" + optLevelName(AllOptLevels[std::get<1>(Info.param)]);
    });
