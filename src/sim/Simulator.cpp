//===- sim/Simulator.cpp - Cortex-M3-like interpreter -------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "sim/ExecutionProfile.h"
#include "support/Format.h"

#include <cassert>

using namespace ramloc;

namespace {

/// ADD with carry-in, producing NZCV the ARM way.
struct AddResult {
  uint32_t Value;
  bool C;
  bool V;
};

AddResult addWithCarry(uint32_t A, uint32_t B, bool CarryIn) {
  uint64_t Unsigned =
      static_cast<uint64_t>(A) + B + (CarryIn ? 1 : 0);
  int64_t Signed = static_cast<int64_t>(static_cast<int32_t>(A)) +
                   static_cast<int32_t>(B) + (CarryIn ? 1 : 0);
  uint32_t Result = static_cast<uint32_t>(Unsigned);
  return {Result, Unsigned > 0xFFFFFFFFULL,
          Signed != static_cast<int32_t>(Result)};
}

} // namespace

Simulator::Simulator(const Image &Img, ExecutionProfile &Prof,
                     uint64_t MaxSteps)
    : Img(Img), Prof(Prof), MaxSteps(MaxSteps), Dec(predecodeImage(Img)),
      Ram(Img.RamBytes) {
  State.R[SP] = Img.Map.stackTop();
  State.R[LR] = ExitAddress;
  PcAddr = Img.EntryAddr;
  PcIdx = decodedIndexAt(Img, PcAddr);
  Prof = ExecutionProfile{};
  Prof.RamLow = Img.Map.RamBase + Img.Map.RamSize;
  Prof.Instrs.assign(Img.Instrs.size(), InstrCounts{});
  Prof.BlockCounts.resize(Img.BlockAddr.size());
  for (unsigned F = 0, NF = Img.BlockAddr.size(); F != NF; ++F)
    Prof.BlockCounts[F].assign(Img.BlockAddr[F].size(), 0);
}

void Simulator::fault(const std::string &Msg) {
  if (Error.empty())
    Error = Msg;
  Prof.Valid = false;
  Halted = true;
}

void Simulator::halt() {
  Prof.ExitCode = State.R[R0];
  Prof.Valid = Error.empty();
  Halted = true;
}

bool Simulator::checkAddr(uint32_t Addr, uint32_t Bytes, bool Write) {
  if (Img.Map.inRam(Addr) &&
      Addr + Bytes <= Img.Map.RamBase + Img.Map.RamSize) {
    if (Addr + Bytes > Img.RamEnd && Addr < Prof.RamLow)
      Prof.RamLow = Addr;
    return true;
  }
  if (!Write && Img.Map.inFlash(Addr) &&
      Addr + Bytes <= Img.Map.FlashBase + Img.Map.FlashSize)
    return true;
  fault(formatString("%s fault at 0x%08x (pc=0x%08x)",
                     Write ? "write" : "read", Addr, PcAddr));
  return false;
}

uint32_t Simulator::read32(uint32_t Addr) {
  if (!checkAddr(Addr, 4, /*Write=*/false))
    return 0;
  const uint8_t *P;
  if (Img.Map.inRam(Addr))
    P = &Ram[Addr - Img.Map.RamBase];
  else
    P = &Img.FlashBytes[Addr - Img.Map.FlashBase];
  return static_cast<uint32_t>(P[0]) | (static_cast<uint32_t>(P[1]) << 8) |
         (static_cast<uint32_t>(P[2]) << 16) |
         (static_cast<uint32_t>(P[3]) << 24);
}

uint16_t Simulator::read16(uint32_t Addr) {
  if (!checkAddr(Addr, 2, /*Write=*/false))
    return 0;
  const uint8_t *P;
  if (Img.Map.inRam(Addr))
    P = &Ram[Addr - Img.Map.RamBase];
  else
    P = &Img.FlashBytes[Addr - Img.Map.FlashBase];
  return static_cast<uint16_t>(P[0] | (P[1] << 8));
}

uint8_t Simulator::read8(uint32_t Addr) {
  if (!checkAddr(Addr, 1, /*Write=*/false))
    return 0;
  if (Img.Map.inRam(Addr))
    return Ram[Addr - Img.Map.RamBase];
  return Img.FlashBytes[Addr - Img.Map.FlashBase];
}

void Simulator::write32(uint32_t Addr, uint32_t Value) {
  if (!checkAddr(Addr, 4, /*Write=*/true))
    return;
  uint8_t *P = &Ram[Addr - Img.Map.RamBase];
  P[0] = static_cast<uint8_t>(Value);
  P[1] = static_cast<uint8_t>(Value >> 8);
  P[2] = static_cast<uint8_t>(Value >> 16);
  P[3] = static_cast<uint8_t>(Value >> 24);
}

void Simulator::write16(uint32_t Addr, uint16_t Value) {
  if (!checkAddr(Addr, 2, /*Write=*/true))
    return;
  uint8_t *P = &Ram[Addr - Img.Map.RamBase];
  P[0] = static_cast<uint8_t>(Value);
  P[1] = static_cast<uint8_t>(Value >> 8);
}

void Simulator::write8(uint32_t Addr, uint8_t Value) {
  if (!checkAddr(Addr, 1, /*Write=*/true))
    return;
  Ram[Addr - Img.Map.RamBase] = Value;
}

void Simulator::countLoad(unsigned DataMem) {
  ++Prof.Instrs[CurIdx].LoadData[DataMem];
}

void Simulator::countDataLoad(uint32_t Addr, uint32_t Bytes) {
  // Code and pool bytes move with the placement; .rodata and RAM data
  // do not.
  if (Img.Map.inFlash(Addr)) {
    Prof.ReadsCode |= Addr < Img.RodataBegin || Addr + Bytes > Img.RodataEnd;
    countLoad(static_cast<unsigned>(MemKind::Flash));
    return;
  }
  Prof.ReadsCode |= Addr + Bytes > Img.RamCodeBegin && Addr < Img.RamEnd;
  // Unmapped addresses count as flash; the read itself faults.
  countLoad(static_cast<unsigned>(Img.Map.inRam(Addr) ? MemKind::Ram
                                                      : MemKind::Flash));
}

void Simulator::branchTo(uint32_t Addr) {
  Addr &= ~1u; // ignore the Thumb bit
  if (Addr == ExitAddress) {
    halt();
    return;
  }
  PcAddr = Addr;
  PcIdx = decodedIndexAt(Img, Addr);
}

void Simulator::jumpTo(const DecodedInstr &D) {
  if (D.TargetIdx == NoInstrIdx) {
    branchTo(D.TargetAddr);
    return;
  }
  PcAddr = D.TargetAddr & ~1u;
  PcIdx = D.TargetIdx;
}

void Simulator::fallThrough(const DecodedInstr &D) {
  PcAddr = D.NextAddr;
  PcIdx = D.NextIdx;
}

bool Simulator::step() {
  if (Halted || Prof.Instructions >= MaxSteps)
    return false;

  if (PcIdx == NoInstrIdx) {
    fault(formatString("fetch fault at 0x%08x", PcAddr));
    return false;
  }
  CurIdx = PcIdx;
  const DecodedInstr &D = Dec[CurIdx];
  if (D.IsBlockHead)
    ++Prof.BlockCounts[D.FuncIdx][D.BlockIdx];
  ++Prof.Instructions;

  // Predicated non-branch instruction whose condition fails: no
  // architectural effect, counted as a skip.
  if (D.CheckCond && !condPasses(D.CondCode, State.F)) {
    ++Prof.Instrs[CurIdx].Skipped;
    fallThrough(D);
    return !Halted;
  }

  execute(D);
  return !Halted;
}

void Simulator::run() {
  while (step())
    ;
}

void Simulator::execute(const DecodedInstr &D) {
  const Instr &I = D.P->I;
  ++Prof.Instrs[CurIdx].Exec;

  switch (D.Kind) {
  // --- control flow -------------------------------------------------------
  case OpKind::B:
    jumpTo(D);
    return;
  case OpKind::BCond: {
    bool Taken = condPasses(D.CondCode, State.F);
    Prof.Instrs[CurIdx].Taken += Taken;
    if (Taken)
      jumpTo(D);
    else
      fallThrough(D);
    return;
  }
  case OpKind::Cbz:
  case OpKind::Cbnz: {
    bool Zero = reg(I.Regs[0]) == 0;
    bool Taken = D.Kind == OpKind::Cbz ? Zero : !Zero;
    Prof.Instrs[CurIdx].Taken += Taken;
    if (Taken)
      jumpTo(D);
    else
      fallThrough(D);
    return;
  }
  case OpKind::Bl:
    reg(LR) = D.NextAddr;
    jumpTo(D);
    return;
  case OpKind::Blx: {
    uint32_t Target = reg(I.Regs[0]);
    reg(LR) = D.NextAddr;
    branchTo(Target);
    return;
  }
  case OpKind::Bx:
    branchTo(reg(I.Regs[0]));
    return;
  case OpKind::It:
  case OpKind::Nop:
    fallThrough(D);
    return;
  case OpKind::Wfi:
    ++Prof.SleepEvents;
    fallThrough(D);
    return;
  case OpKind::Bkpt:
    halt();
    return;

  // --- memory -------------------------------------------------------------
  case OpKind::LdrImm:
  case OpKind::LdrReg:
  case OpKind::StrImm:
  case OpKind::StrReg:
  case OpKind::LdrbImm:
  case OpKind::LdrbReg:
  case OpKind::StrbImm:
  case OpKind::StrbReg:
  case OpKind::LdrhImm:
  case OpKind::StrhImm:
  case OpKind::LdrLit:
  case OpKind::Push:
  case OpKind::Pop:
    executeMem(D);
    return;

  default:
    executeAlu(D);
    return;
  }
}

void Simulator::executeMem(const DecodedInstr &D) {
  const Instr &I = D.P->I;
  uint32_t Rt = reg(I.Regs[0]);
  uint32_t Base = reg(I.Regs[1]);

  auto effectiveAddr = [&](bool RegForm) {
    return RegForm ? Base + reg(I.Regs[2])
                   : Base + static_cast<uint32_t>(I.Imm);
  };

  switch (D.Kind) {
  case OpKind::LdrImm:
  case OpKind::LdrReg: {
    uint32_t EA = effectiveAddr(D.Kind == OpKind::LdrReg);
    countDataLoad(EA, 4);
    reg(I.Regs[0]) = read32(EA);
    break;
  }
  case OpKind::LdrbImm:
  case OpKind::LdrbReg: {
    uint32_t EA = effectiveAddr(D.Kind == OpKind::LdrbReg);
    countDataLoad(EA, 1);
    reg(I.Regs[0]) = read8(EA);
    break;
  }
  case OpKind::LdrhImm: {
    uint32_t EA = effectiveAddr(false);
    countDataLoad(EA, 2);
    reg(I.Regs[0]) = read16(EA);
    break;
  }
  case OpKind::StrImm:
  case OpKind::StrReg: {
    uint32_t EA = effectiveAddr(D.Kind == OpKind::StrReg);
    write32(EA, Rt);
    break;
  }
  case OpKind::StrbImm:
  case OpKind::StrbReg: {
    uint32_t EA = effectiveAddr(D.Kind == OpKind::StrbReg);
    write8(EA, static_cast<uint8_t>(Rt));
    break;
  }
  case OpKind::StrhImm: {
    uint32_t EA = effectiveAddr(false);
    write16(EA, static_cast<uint16_t>(Rt));
    break;
  }
  case OpKind::LdrLit: {
    // The pool slot was resolved by the linker; its memory determines the
    // data-side power (RAM code with flash pools is the expensive Figure 1
    // case; our pools co-locate with the code, so RAM code pools are RAM).
    uint32_t Value = read32(D.TargetAddr);
    countLoad(static_cast<unsigned>(Img.Map.inRam(D.TargetAddr)
                                        ? MemKind::Ram
                                        : MemKind::Flash));
    if (I.Regs[0] == PC) {
      branchTo(Value);
      return;
    }
    reg(I.Regs[0]) = Value;
    break;
  }
  case OpKind::Push: {
    uint32_t Mask = static_cast<uint32_t>(I.Imm);
    unsigned Count = regMaskCount(Mask);
    uint32_t Addr = reg(SP) - 4 * Count;
    reg(SP) = Addr;
    for (unsigned R = 0; R < 16; ++R) {
      if (!(Mask & (1u << R)))
        continue;
      write32(Addr, State.R[R]);
      Addr += 4;
    }
    break;
  }
  case OpKind::Pop: {
    uint32_t Mask = static_cast<uint32_t>(I.Imm);
    countLoad(static_cast<unsigned>(MemKind::Ram));
    uint32_t Addr = reg(SP);
    uint32_t NewPC = 0;
    bool HasPC = false;
    for (unsigned R = 0; R < 16; ++R) {
      if (!(Mask & (1u << R)))
        continue;
      uint32_t V = read32(Addr);
      Addr += 4;
      if (R == PC) {
        NewPC = V;
        HasPC = true;
      } else {
        State.R[R] = V;
      }
    }
    reg(SP) = Addr;
    if (HasPC) {
      branchTo(NewPC);
      return;
    }
    break;
  }
  default:
    assert(false && "not a memory opcode");
  }
  fallThrough(D);
}

void Simulator::executeAlu(const DecodedInstr &D) {
  const Instr &I = D.P->I;

  uint32_t Rn = reg(I.Regs[1]);
  uint32_t RmV = reg(I.Regs[2]);
  uint32_t ImmU = static_cast<uint32_t>(I.Imm);
  uint32_t Result = 0;
  bool WroteResult = true;
  bool UpdateCV = false;
  bool NewC = State.F.C, NewV = State.F.V;

  switch (D.Kind) {
  case OpKind::MovImm:
    Result = ImmU;
    break;
  case OpKind::MovReg:
    Result = Rn; // Regs[1] = rm for mov
    break;
  case OpKind::Mvn:
    Result = ~Rn;
    break;
  case OpKind::AddImm: {
    AddResult A = addWithCarry(Rn, ImmU, false);
    Result = A.Value;
    NewC = A.C;
    NewV = A.V;
    UpdateCV = true;
    break;
  }
  case OpKind::AddReg: {
    AddResult A = addWithCarry(Rn, RmV, false);
    Result = A.Value;
    NewC = A.C;
    NewV = A.V;
    UpdateCV = true;
    break;
  }
  case OpKind::SubImm: {
    AddResult A = addWithCarry(Rn, ~ImmU, true);
    Result = A.Value;
    NewC = A.C;
    NewV = A.V;
    UpdateCV = true;
    break;
  }
  case OpKind::SubReg: {
    AddResult A = addWithCarry(Rn, ~RmV, true);
    Result = A.Value;
    NewC = A.C;
    NewV = A.V;
    UpdateCV = true;
    break;
  }
  case OpKind::Rsb: {
    AddResult A = addWithCarry(~Rn, ImmU, true);
    Result = A.Value;
    NewC = A.C;
    NewV = A.V;
    UpdateCV = true;
    break;
  }
  case OpKind::Adc: {
    AddResult A = addWithCarry(Rn, RmV, State.F.C);
    Result = A.Value;
    NewC = A.C;
    NewV = A.V;
    UpdateCV = true;
    break;
  }
  case OpKind::Sbc: {
    AddResult A = addWithCarry(Rn, ~RmV, State.F.C);
    Result = A.Value;
    NewC = A.C;
    NewV = A.V;
    UpdateCV = true;
    break;
  }
  case OpKind::Mul:
    Result = Rn * RmV;
    break;
  case OpKind::Mla:
    Result = Rn * RmV + reg(I.Regs[3]);
    break;
  case OpKind::Udiv:
    Result = RmV == 0 ? 0 : Rn / RmV;
    break;
  case OpKind::Sdiv: {
    int32_t N = static_cast<int32_t>(Rn);
    int32_t Dv = static_cast<int32_t>(RmV);
    if (Dv == 0)
      Result = 0;
    else if (N == INT32_MIN && Dv == -1)
      Result = static_cast<uint32_t>(INT32_MIN);
    else
      Result = static_cast<uint32_t>(N / Dv);
    break;
  }
  case OpKind::AndReg:
    Result = Rn & RmV;
    break;
  case OpKind::OrrReg:
    Result = Rn | RmV;
    break;
  case OpKind::EorReg:
    Result = Rn ^ RmV;
    break;
  case OpKind::BicReg:
    Result = Rn & ~RmV;
    break;
  case OpKind::AndImm:
    Result = Rn & ImmU;
    break;
  case OpKind::OrrImm:
    Result = Rn | ImmU;
    break;
  case OpKind::EorImm:
    Result = Rn ^ ImmU;
    break;
  case OpKind::BicImm:
    Result = Rn & ~ImmU;
    break;
  case OpKind::LslImm:
    Result = ImmU == 0 ? Rn : Rn << (ImmU & 31);
    break;
  case OpKind::LsrImm:
    Result = ImmU >= 32 ? 0 : Rn >> ImmU;
    break;
  case OpKind::AsrImm:
    Result = ImmU >= 32
                 ? (static_cast<int32_t>(Rn) < 0 ? 0xFFFFFFFFu : 0)
                 : static_cast<uint32_t>(static_cast<int32_t>(Rn) >>
                                         ImmU);
    break;
  case OpKind::LslReg: {
    uint32_t Amt = RmV & 0xFF;
    Result = Amt >= 32 ? 0 : Rn << Amt;
    break;
  }
  case OpKind::LsrReg: {
    uint32_t Amt = RmV & 0xFF;
    Result = Amt >= 32 ? 0 : Rn >> Amt;
    break;
  }
  case OpKind::AsrReg: {
    uint32_t Amt = RmV & 0xFF;
    if (Amt >= 32)
      Result = static_cast<int32_t>(Rn) < 0 ? 0xFFFFFFFFu : 0;
    else
      Result = static_cast<uint32_t>(static_cast<int32_t>(Rn) >> Amt);
    break;
  }
  case OpKind::RorReg: {
    uint32_t Amt = RmV & 31;
    Result = Amt == 0 ? Rn : (Rn >> Amt) | (Rn << (32 - Amt));
    break;
  }
  case OpKind::CmpImm: {
    AddResult A = addWithCarry(reg(I.Regs[0]), ~ImmU, true);
    Result = A.Value;
    NewC = A.C;
    NewV = A.V;
    UpdateCV = true;
    WroteResult = false;
    break;
  }
  case OpKind::CmpReg: {
    AddResult A = addWithCarry(reg(I.Regs[0]), ~reg(I.Regs[1]), true);
    Result = A.Value;
    NewC = A.C;
    NewV = A.V;
    UpdateCV = true;
    WroteResult = false;
    break;
  }
  case OpKind::Tst:
    Result = reg(I.Regs[0]) & reg(I.Regs[1]);
    WroteResult = false;
    break;
  case OpKind::Uxtb:
    Result = Rn & 0xFF;
    break;
  case OpKind::Uxth:
    Result = Rn & 0xFFFF;
    break;
  case OpKind::Sxtb:
    Result = static_cast<uint32_t>(
        static_cast<int32_t>(static_cast<int8_t>(Rn & 0xFF)));
    break;
  case OpKind::Sxth:
    Result = static_cast<uint32_t>(
        static_cast<int32_t>(static_cast<int16_t>(Rn & 0xFFFF)));
    break;
  default:
    assert(false && "not an ALU opcode");
  }

  if (WroteResult)
    reg(I.Regs[0]) = Result;
  if (I.SetsFlags) {
    State.F.N = (Result >> 31) != 0;
    State.F.Z = Result == 0;
    if (UpdateCV) {
      State.F.C = NewC;
      State.F.V = NewV;
    }
  }
  fallThrough(D);
}
