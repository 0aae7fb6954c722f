//===- sim/Simulator.cpp - Cortex-M3-like interpreter -------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "sim/ExecutionProfile.h"
#include "support/Format.h"

#include <array>
#include <bit>

using namespace ramloc;

/// Forces a helper lambda of the dispatch loop inline, so that the loop's
/// locals it captures stay in registers.
#define RAMLOC_INLINE __attribute__((always_inline))

namespace {

/// NZCV packed into a nibble, N in bit 3 down to V in bit 0.
constexpr unsigned FlagN = 8, FlagZ = 4, FlagC = 2, FlagV = 1;

unsigned packFlags(const Flags &F) {
  return (F.N ? FlagN : 0) | (F.Z ? FlagZ : 0) | (F.C ? FlagC : 0) |
         (F.V ? FlagV : 0);
}

Flags unpackFlags(unsigned NZCV) {
  Flags F;
  F.N = NZCV & FlagN;
  F.Z = NZCV & FlagZ;
  F.C = NZCV & FlagC;
  F.V = NZCV & FlagV;
  return F;
}

/// PassMask[C] bit NZCV: whether condition C passes under those flags.
/// Built from condPasses, which stays the one statement of the rules.
const std::array<uint16_t, 15> PassMask = [] {
  std::array<uint16_t, 15> Mask{};
  for (unsigned C = 0; C != Mask.size(); ++C)
    for (unsigned NZCV = 0; NZCV != 16; ++NZCV)
      if (condPasses(static_cast<Cond>(C), unpackFlags(NZCV)))
        Mask[C] |= 1u << NZCV;
  return Mask;
}();

bool passes(Cond C, unsigned NZCV) {
  return (PassMask[static_cast<unsigned>(C)] >> NZCV) & 1;
}

/// The N and Z flags of \p Result.
unsigned flagsNZ(uint32_t Result) {
  return (Result >> 31 ? FlagN : 0) | (Result == 0 ? FlagZ : 0);
}

/// ADD with carry-in: the sum and its NZCV flags, the ARM way.
struct AddResult {
  uint32_t Value;
  unsigned NZCV;
};

AddResult addWithCarry(uint32_t A, uint32_t B, unsigned CarryIn) {
  uint64_t Unsigned = static_cast<uint64_t>(A) + B + CarryIn;
  int64_t Signed = static_cast<int64_t>(static_cast<int32_t>(A)) +
                   static_cast<int32_t>(B) + CarryIn;
  uint32_t Result = static_cast<uint32_t>(Unsigned);
  return {Result, flagsNZ(Result) |
                      (Unsigned > 0xFFFFFFFFULL ? FlagC : 0) |
                      (Signed != static_cast<int32_t>(Result) ? FlagV : 0)};
}

uint32_t asr(uint32_t V, uint32_t Amt) {
  if (Amt >= 32)
    return static_cast<int32_t>(V) < 0 ? 0xFFFFFFFFu : 0;
  return static_cast<uint32_t>(static_cast<int32_t>(V) >> Amt);
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

void Simulator::accessFault(bool Write, uint32_t Addr, uint32_t Idx) {
  fault(formatString("%s fault at 0x%08x (pc=0x%08x)",
                     Write ? "write" : "read", Addr, Img.Instrs[Idx].Addr));
}

void Simulator::halt() {
  Prof.ExitCode = State.R[R0];
  Prof.Valid = Error.empty();
  Halted = true;
}

void Simulator::syncBlockCount(uint32_t Idx) {
  const PlacedInstr &P = Img.Instrs[Idx];
  if (P.IsBlockHead)
    Prof.BlockCounts[P.FuncIdx][P.BlockIdx] =
        Prof.Instrs[Idx].Exec + Prof.Instrs[Idx].Skipped;
}

bool Simulator::step() {
  if (Halted || Prof.Instructions >= MaxSteps)
    return false;
  uint64_t Before = Prof.Instructions;
  exec(Before + 1);
  if (Prof.Instructions != Before)
    syncBlockCount(CurIdx);
  return !Halted;
}

void Simulator::run() {
  if (Halted)
    return;
  exec(MaxSteps);
  for (uint32_t I = 0, N = Img.Instrs.size(); I != N; ++I)
    syncBlockCount(I);
}

void Simulator::exec(uint64_t Limit) {
  uint32_t *R = State.R;
  InstrCounts *Counts = Prof.Instrs.data();
  const DecodedInstr *Decoded = Dec.data();
  uint64_t Steps = Prof.Instructions;
  uint32_t RamLow = Prof.RamLow;
  bool ReadsCode = Prof.ReadsCode;
  unsigned NZCV = packFlags(State.F);
  uint32_t Pc = PcIdx, Cur = CurIdx;

  uint8_t *RamBytes = Ram.data();
  const uint8_t *FlashBytes = Img.FlashBytes.data();
  const uint32_t RamBase = Img.Map.RamBase, RamSize = Img.Map.RamSize;
  const uint32_t FlashBase = Img.Map.FlashBase, FlashSize = Img.Map.FlashSize;
  const uint32_t RodataBegin = Img.RodataBegin, RodataEnd = Img.RodataEnd;
  const uint32_t RamCodeBegin = Img.RamCodeBegin, RamEnd = Img.RamEnd;

  // The helpers are lambdas over these locals. A helper captures the
  // helpers it calls by value: a closure holding another closure's address
  // would pin the locals they capture to memory.

  // Ends the loop after the current instruction.
  auto stop = [&] { Limit = Steps; };
  // Host bytes of [Addr, Addr + Bytes) in RAM, or null.
  auto ramAt = [&](uint32_t Addr,
                   uint32_t Bytes) RAMLOC_INLINE -> uint8_t * {
    if (Addr - RamBase > RamSize - Bytes)
      return nullptr;
    if (Addr + Bytes > RamEnd && Addr < RamLow)
      RamLow = Addr;
    return RamBytes + (Addr - RamBase);
  };
  auto load = [&, ramAt, stop](uint32_t Addr,
                               uint32_t Bytes) RAMLOC_INLINE -> uint32_t {
    const uint8_t *P = ramAt(Addr, Bytes);
    if (!P) {
      if (Addr - FlashBase > FlashSize - Bytes) {
        accessFault(/*Write=*/false, Addr, Cur);
        stop();
        return 0;
      }
      P = FlashBytes + (Addr - FlashBase);
    }
    uint32_t V = 0;
    for (uint32_t B = 0; B != Bytes; ++B)
      V |= static_cast<uint32_t>(P[B]) << (8 * B);
    return V;
  };
  auto store = [&, ramAt, stop](uint32_t Addr, uint32_t Bytes,
                                uint32_t V) RAMLOC_INLINE {
    uint8_t *P = ramAt(Addr, Bytes);
    if (!P) {
      accessFault(/*Write=*/true, Addr, Cur);
      stop();
      return;
    }
    for (uint32_t B = 0; B != Bytes; ++B)
      P[B] = static_cast<uint8_t>(V >> (8 * B));
  };
  // A non-literal load: counts its data memory and whether it read code
  // or pool bytes, which move with the placement (.rodata and RAM data
  // do not). Unmapped addresses count as flash; the read itself faults.
  auto dataLoad = [&, load](uint32_t Addr,
                            uint32_t Bytes) RAMLOC_INLINE -> uint32_t {
    MemKind Data = MemKind::Flash;
    if (Addr - FlashBase < FlashSize) {
      ReadsCode |= Addr < RodataBegin || Addr + Bytes > RodataEnd;
    } else {
      ReadsCode |= Addr + Bytes > RamCodeBegin && Addr < RamEnd;
      if (Addr - RamBase < RamSize)
        Data = MemKind::Ram;
    }
    ++Counts[Cur].LoadData[static_cast<unsigned>(Data)];
    return load(Addr, Bytes);
  };
  // A computed transfer (or a direct one whose target is no instruction).
  auto branchTo = [&, stop](uint32_t Addr) RAMLOC_INLINE {
    Addr &= ~1u; // ignore the Thumb bit
    if (Addr == ExitAddress) {
      halt();
      stop();
      return;
    }
    Pc = decodedIndexAt(Img, Addr);
    if (Pc == NoInstrIdx)
      PcAddr = Addr;
  };

  while (Steps < Limit) {
    if (Pc == NoInstrIdx) {
      fault(formatString("fetch fault at 0x%08x", PcAddr));
      break;
    }
    Cur = Pc;
    const DecodedInstr &D = Decoded[Cur];
    InstrCounts &C = Counts[Cur];
    ++Steps;

    auto fallThrough = [&] {
      Pc = D.NextIdx;
      if (Pc == NoInstrIdx)
        PcAddr = D.NextAddr;
    };
    // A predicated non-branch instruction whose condition fails has no
    // architectural effect; it counts as a skip.
    if (D.CheckCond && !passes(D.CondCode, NZCV)) {
      ++C.Skipped;
      fallThrough();
      continue;
    }
    ++C.Exec;

    // A direct transfer to D's target; a conditional one counts as taken.
    auto jump = [&, branchTo] {
      if (D.TargetIdx == NoInstrIdx)
        branchTo(D.TargetAddr);
      else
        Pc = D.TargetIdx;
    };
    auto taken = [&](bool Taken) {
      C.Taken += Taken;
      return Taken;
    };
    // Data processing writes its result to the first operand; an "s"
    // form also sets NZ from it (logic keeps C and V, arith sets them).
    auto logic = [&](uint32_t Result) {
      R[D.Regs[0]] = Result;
      if (D.SetsFlags)
        NZCV = flagsNZ(Result) | (NZCV & (FlagC | FlagV));
    };
    auto arith = [&](AddResult A, bool Write = true) {
      if (Write)
        R[D.Regs[0]] = A.Value;
      if (D.SetsFlags)
        NZCV = A.NZCV;
    };

    // Cases that transfer control `continue`; the others fall through.
    const uint32_t Rn = R[D.Regs[1]], Rm = R[D.Regs[2]];
    const uint32_t Imm = static_cast<uint32_t>(D.Imm);
    const unsigned Carry = (NZCV & FlagC) ? 1 : 0;
    switch (D.Kind) {
    // --- data processing ------------------------------------------------
    case OpKind::MovImm:
      logic(Imm);
      break;
    case OpKind::MovReg:
      logic(Rn); // Regs[1] = rm for mov
      break;
    case OpKind::Mvn:
      logic(~Rn);
      break;
    case OpKind::AddImm:
      arith(addWithCarry(Rn, Imm, 0));
      break;
    case OpKind::AddReg:
      arith(addWithCarry(Rn, Rm, 0));
      break;
    case OpKind::SubImm:
      arith(addWithCarry(Rn, ~Imm, 1));
      break;
    case OpKind::SubReg:
      arith(addWithCarry(Rn, ~Rm, 1));
      break;
    case OpKind::Rsb:
      arith(addWithCarry(~Rn, Imm, 1));
      break;
    case OpKind::Adc:
      arith(addWithCarry(Rn, Rm, Carry));
      break;
    case OpKind::Sbc:
      arith(addWithCarry(Rn, ~Rm, Carry));
      break;
    case OpKind::Mul:
      logic(Rn * Rm);
      break;
    case OpKind::Mla:
      logic(Rn * Rm + R[D.Regs[3]]);
      break;
    case OpKind::Udiv:
      logic(Rm == 0 ? 0 : Rn / Rm);
      break;
    case OpKind::Sdiv: {
      int32_t N = static_cast<int32_t>(Rn), Dv = static_cast<int32_t>(Rm);
      if (Dv == 0)
        logic(0);
      else if (N == INT32_MIN && Dv == -1)
        logic(static_cast<uint32_t>(INT32_MIN));
      else
        logic(static_cast<uint32_t>(N / Dv));
      break;
    }
    case OpKind::AndReg:
      logic(Rn & Rm);
      break;
    case OpKind::OrrReg:
      logic(Rn | Rm);
      break;
    case OpKind::EorReg:
      logic(Rn ^ Rm);
      break;
    case OpKind::BicReg:
      logic(Rn & ~Rm);
      break;
    case OpKind::AndImm:
      logic(Rn & Imm);
      break;
    case OpKind::OrrImm:
      logic(Rn | Imm);
      break;
    case OpKind::EorImm:
      logic(Rn ^ Imm);
      break;
    case OpKind::BicImm:
      logic(Rn & ~Imm);
      break;
    case OpKind::LslImm:
      logic(Imm == 0 ? Rn : Rn << (Imm & 31));
      break;
    case OpKind::LsrImm:
      logic(Imm >= 32 ? 0 : Rn >> Imm);
      break;
    case OpKind::AsrImm:
      logic(asr(Rn, Imm));
      break;
    case OpKind::LslReg:
      logic((Rm & 0xFF) >= 32 ? 0 : Rn << (Rm & 0xFF));
      break;
    case OpKind::LsrReg:
      logic((Rm & 0xFF) >= 32 ? 0 : Rn >> (Rm & 0xFF));
      break;
    case OpKind::AsrReg:
      logic(asr(Rn, Rm & 0xFF));
      break;
    case OpKind::RorReg:
      logic(std::rotr(Rn, static_cast<int>(Rm & 31)));
      break;
    case OpKind::CmpImm:
      arith(addWithCarry(R[D.Regs[0]], ~Imm, 1), /*Write=*/false);
      break;
    case OpKind::CmpReg:
      arith(addWithCarry(R[D.Regs[0]], ~Rn, 1), /*Write=*/false);
      break;
    case OpKind::Tst:
      if (D.SetsFlags)
        NZCV = flagsNZ(R[D.Regs[0]] & Rn) | (NZCV & (FlagC | FlagV));
      break;
    case OpKind::Uxtb:
      logic(Rn & 0xFF);
      break;
    case OpKind::Uxth:
      logic(Rn & 0xFFFF);
      break;
    case OpKind::Sxtb:
      logic(static_cast<uint32_t>(static_cast<int8_t>(Rn & 0xFF)));
      break;
    case OpKind::Sxth:
      logic(static_cast<uint32_t>(static_cast<int16_t>(Rn & 0xFFFF)));
      break;

    // --- memory ---------------------------------------------------------
    case OpKind::LdrImm:
      R[D.Regs[0]] = dataLoad(Rn + Imm, 4);
      break;
    case OpKind::LdrReg:
      R[D.Regs[0]] = dataLoad(Rn + Rm, 4);
      break;
    case OpKind::LdrbImm:
      R[D.Regs[0]] = dataLoad(Rn + Imm, 1);
      break;
    case OpKind::LdrbReg:
      R[D.Regs[0]] = dataLoad(Rn + Rm, 1);
      break;
    case OpKind::LdrhImm:
      R[D.Regs[0]] = dataLoad(Rn + Imm, 2);
      break;
    case OpKind::StrImm:
      store(Rn + Imm, 4, R[D.Regs[0]]);
      break;
    case OpKind::StrReg:
      store(Rn + Rm, 4, R[D.Regs[0]]);
      break;
    case OpKind::StrbImm:
      store(Rn + Imm, 1, R[D.Regs[0]]);
      break;
    case OpKind::StrbReg:
      store(Rn + Rm, 1, R[D.Regs[0]]);
      break;
    case OpKind::StrhImm:
      store(Rn + Imm, 2, R[D.Regs[0]]);
      break;
    case OpKind::LdrLit: {
      // The pool slot was resolved by the linker; its memory determines
      // the data-side power (RAM code with flash pools is the expensive
      // Figure 1 case; our pools co-locate with the code, so RAM code
      // pools are RAM).
      uint32_t Value = load(D.TargetAddr, 4);
      MemKind Pool = D.TargetAddr - RamBase < RamSize ? MemKind::Ram
                                                       : MemKind::Flash;
      ++C.LoadData[static_cast<unsigned>(Pool)];
      if (D.Regs[0] == PC) {
        branchTo(Value);
        continue;
      }
      R[D.Regs[0]] = Value;
      break;
    }
    case OpKind::Push: {
      uint32_t Mask = Imm & 0xFFFF; // r0-r15
      uint32_t Addr = R[SP] - 4 * std::popcount(Mask);
      R[SP] = Addr;
      for (; Mask; Mask &= Mask - 1, Addr += 4)
        store(Addr, 4, R[std::countr_zero(Mask)]);
      break;
    }
    case OpKind::Pop: {
      ++C.LoadData[static_cast<unsigned>(MemKind::Ram)];
      uint32_t Addr = R[SP], NewPC = 0;
      for (uint32_t Mask = Imm & 0xFFFF; Mask; Mask &= Mask - 1, Addr += 4) {
        unsigned Reg = std::countr_zero(Mask);
        uint32_t V = load(Addr, 4);
        if (Reg == PC)
          NewPC = V;
        else
          R[Reg] = V;
      }
      R[SP] = Addr;
      if (Imm & (1u << PC)) {
        branchTo(NewPC);
        continue;
      }
      break;
    }

    // --- control flow ---------------------------------------------------
    case OpKind::B:
      jump();
      continue;
    case OpKind::BCond:
      if (!taken(passes(D.CondCode, NZCV)))
        break;
      jump();
      continue;
    case OpKind::Cbz:
      if (!taken(R[D.Regs[0]] == 0))
        break;
      jump();
      continue;
    case OpKind::Cbnz:
      if (!taken(R[D.Regs[0]] != 0))
        break;
      jump();
      continue;
    case OpKind::Bl:
      R[LR] = D.NextAddr;
      jump();
      continue;
    case OpKind::Blx: {
      uint32_t Target = R[D.Regs[0]];
      R[LR] = D.NextAddr;
      branchTo(Target);
      continue;
    }
    case OpKind::Bx:
      branchTo(R[D.Regs[0]]);
      continue;
    case OpKind::Wfi:
      ++Prof.SleepEvents;
      break;
    case OpKind::It:
    case OpKind::Nop:
      break;
    case OpKind::Bkpt:
      halt();
      stop();
      continue;
    }
    fallThrough();
  }

  Prof.Instructions = Steps;
  Prof.RamLow = RamLow;
  Prof.ReadsCode = ReadsCode;
  State.F = unpackFlags(NZCV);
  PcIdx = Pc;
  CurIdx = Cur;
}
