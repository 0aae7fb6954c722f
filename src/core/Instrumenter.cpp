//===- core/Instrumenter.cpp - Figure 4 code transformation --------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "core/Instrumenter.h"

#include "mir/CFG.h"

#include <cassert>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

using namespace ramloc;
using namespace ramloc::build;

namespace {

/// Emits the Figure 4 conditional sequence: ite CC; ldrCC r7, =Taken;
/// ldr!CC r7, =Fall; bx r7.
void emitCondSequence(std::vector<Instr> &Out, Cond CC,
                      const std::string &Taken, const std::string &Fall) {
  Out.push_back(ite(CC));
  Out.push_back(withCond(ldrLitSym(ScratchReg, Taken), CC));
  Out.push_back(withCond(ldrLitSym(ScratchReg, Fall), invertCond(CC)));
  Out.push_back(bx(ScratchReg));
}

class Rewriter {
public:
  Rewriter(const Module &M, const ModelParams &MP, const Assignment &InRam,
           InstrumenterStats &Stats)
      : M(M), MP(MP), InRam(InRam), Stats(Stats) {}

  Module run() {
    Module Out = M;
    for (unsigned F = 0, NF = Out.Functions.size(); F != NF; ++F)
      rewriteFunction(Out, F);
    return Out;
  }

private:
  bool blockInRam(unsigned F, unsigned B) const {
    return InRam[MP.globalIndex(F, B)];
  }

  bool calleeInRam(const std::string &Callee) const {
    int FIdx = M.functionIndex(Callee);
    assert(FIdx >= 0 && "call to unknown function");
    return blockInRam(static_cast<unsigned>(FIdx), 0);
  }

  void rewriteFunction(Module &Out, unsigned F) {
    Function &Fn = Out.Functions[F];
    CFG G = CFG::build(M.Functions[F]);

    for (unsigned B = 0, NB = Fn.Blocks.size(); B != NB; ++B) {
      BasicBlock &BB = Fn.Blocks[B];
      bool Home = blockInRam(F, B);
      if (Home) {
        BB.Home = MemKind::Ram;
        ++Stats.BlocksMoved;
      }

      rewriteCalls(BB, Home);
      rewriteTerminator(Fn, F, G, B, Home);
    }
  }

  /// Replaces cross-memory `bl f` with `ldr r7, =f; blx r7`.
  void rewriteCalls(BasicBlock &BB, bool Home) {
    std::vector<Instr> Out;
    Out.reserve(BB.Instrs.size());
    for (Instr &I : BB.Instrs) {
      if (I.Kind == OpKind::Bl && calleeInRam(I.Sym) != Home) {
        Out.push_back(ldrLitSym(ScratchReg, I.Sym));
        Out.push_back(blx(ScratchReg));
        ++Stats.CallsRewritten;
        continue;
      }
      Out.push_back(std::move(I));
    }
    BB.Instrs = std::move(Out);
  }

  void rewriteTerminator(Function &Fn, unsigned F, const CFG &G,
                         unsigned B, bool Home) {
    BasicBlock &BB = Fn.Blocks[B];
    const BlockEdges &E = G.edges(B);

    auto succInRam = [&](int Succ) {
      assert(Succ >= 0 && "successor expected");
      return blockInRam(F, static_cast<unsigned>(Succ));
    };

    switch (E.Term) {
    case TermKind::Uncond: {
      if (succInRam(E.TakenSucc) == Home)
        return;
      // b label -> ldr pc, =label.
      Instr &Term = BB.Instrs.back();
      std::string Target = Term.Sym;
      BB.Instrs.pop_back();
      BB.Instrs.push_back(ldrLitSym(PC, Target));
      ++Stats.BranchesRewritten;
      return;
    }
    case TermKind::Cond: {
      bool TakenCrosses = succInRam(E.TakenSucc) != Home;
      bool FallCrosses = succInRam(E.FallSucc) != Home;
      if (!TakenCrosses && !FallCrosses)
        return;
      Instr Term = BB.Instrs.back();
      BB.Instrs.pop_back();
      std::string Taken = Term.Sym;
      std::string Fall = Fn.Blocks[static_cast<unsigned>(E.FallSucc)].Label;
      emitCondSequence(BB.Instrs, Term.CondCode, Taken, Fall);
      ++Stats.BranchesRewritten;
      return;
    }
    case TermKind::CmpBranch: {
      bool TakenCrosses = succInRam(E.TakenSucc) != Home;
      bool FallCrosses = succInRam(E.FallSucc) != Home;
      if (!TakenCrosses && !FallCrosses)
        return;
      Instr Term = BB.Instrs.back();
      BB.Instrs.pop_back();
      std::string Taken = Term.Sym;
      std::string Fall = Fn.Blocks[static_cast<unsigned>(E.FallSucc)].Label;
      // cbz -> taken when zero (eq); cbnz -> taken when non-zero (ne).
      Cond CC = Term.Kind == OpKind::Cbz ? Cond::EQ : Cond::NE;
      BB.Instrs.push_back(cmpImm(Term.Regs[0], 0));
      emitCondSequence(BB.Instrs, CC, Taken, Fall);
      ++Stats.BranchesRewritten;
      return;
    }
    case TermKind::Fallthrough: {
      if (succInRam(E.FallSucc) == Home)
        return;
      const std::string &Target =
          Fn.Blocks[static_cast<unsigned>(E.FallSucc)].Label;
      BB.Instrs.push_back(ldrLitSym(PC, Target));
      ++Stats.FallthroughsRewritten;
      return;
    }
    case TermKind::Return:
    case TermKind::Halt:
    case TermKind::IndirectJump:
      return; // already long-range or no successors
    }
  }

  const Module &M;
  const ModelParams &MP;
  const Assignment &InRam;
  InstrumenterStats &Stats;
};

} // namespace

Module ramloc::applyPlacement(const Module &M, const ModelParams &MP,
                              const Assignment &InRam,
                              InstrumenterStats *Stats) {
  assert(InRam.size() == MP.numBlocks() && "assignment size mismatch");
  InstrumenterStats Local;
  Rewriter RW(M, MP, InRam, Stats ? *Stats : Local);
  return RW.run();
}

namespace {

/// Walks a baseline image and a placement of it in step, deriving the
/// placement's profile (see deriveOptimizedProfile).
class ProfileDeriver {
public:
  ProfileDeriver(const Image &Base, const ExecutionProfile &BP,
                 const Image &Opt, ExecutionProfile &Out)
      : Base(Base), BP(BP), Opt(Opt), Out(Out) {}

  /// Null on success, else the reason the derivation is not exact.
  const char *run() {
    if (!BP.Valid || BP.RamLow == 0)
      return "no-mark";
    if (BP.ReadsCode)
      return "code-read";
    if (!sameShape())
      return "shape";
    if (!sameRamData() || BP.RamLow < Opt.RamEnd)
      return "ram-overlap";

    Out = ExecutionProfile{};
    Out.Instrs.assign(Opt.Instrs.size(), InstrCounts{});
    size_t J = 0;
    for (unsigned F = 0, NF = Base.BlockAddr.size(); F != NF; ++F)
      for (unsigned B = 0, NB = Base.BlockAddr[F].size(); B != NB; ++B) {
        size_t JE = blockEnd(Opt, J, F, B);
        if (!block(F, B, BaseRange[F][B].first, BaseRange[F][B].second, J,
                   JE))
          return "shape";
        J = JE;
      }
    if (J != Opt.Instrs.size())
      return "shape";

    uint64_t BaseSteps = 0;
    for (const InstrCounts &C : BP.Instrs)
      BaseSteps += C.Exec + C.Skipped;
    if (BaseSteps != BP.Instructions)
      return "shape";
    for (const InstrCounts &C : Out.Instrs)
      Out.Instructions += C.Exec + C.Skipped;
    Out.BlockCounts = BP.BlockCounts;
    Out.SleepEvents = BP.SleepEvents;
    Out.ExitCode = BP.ExitCode;
    // Every RAM access at or above Opt.RamEnd was also at or above
    // Base.RamEnd, and BP.RamLow >= Opt.RamEnd: the minimum is the same.
    Out.RamLow = BP.RamLow;
    Out.Valid = true;
    return nullptr;
  }

private:
  /// Where a baseline block went.
  struct BlockRef {
    uint32_t OptAddr = 0; ///< 0 when two blocks share the base address
    unsigned F = 0, B = 0;
  };

  /// One past the last instruction of block (F, B) at or after \p I.
  static size_t blockEnd(const Image &Img, size_t I, unsigned F,
                         unsigned B) {
    while (I != Img.Instrs.size() && Img.Instrs[I].FuncIdx == F &&
           Img.Instrs[I].BlockIdx == B)
      ++I;
    return I;
  }

  /// Same memory map and block geometry, a profile shaped for Base, and
  /// the baseline's block ranges (covering every instruction) and address
  /// map.
  bool sameShape() {
    const MemoryMap &BM = Base.Map, &OM = Opt.Map;
    if (BM.FlashBase != OM.FlashBase || BM.FlashSize != OM.FlashSize ||
        BM.RamBase != OM.RamBase || BM.RamSize != OM.RamSize ||
        Base.BlockAddr.size() != Opt.BlockAddr.size() ||
        BP.Instrs.size() != Base.Instrs.size() ||
        BP.BlockCounts.size() != Base.BlockAddr.size())
      return false;
    BaseRange.resize(Base.BlockAddr.size());
    size_t I = 0;
    for (unsigned F = 0, NF = Base.BlockAddr.size(); F != NF; ++F) {
      unsigned NB = Base.BlockAddr[F].size();
      if (Opt.BlockAddr[F].size() != NB || BP.BlockCounts[F].size() != NB)
        return false;
      for (unsigned B = 0; B != NB; ++B) {
        size_t E = blockEnd(Base, I, F, B);
        BaseRange[F].emplace_back(I, E);
        I = E;
        auto [It, New] = Blocks.try_emplace(Base.BlockAddr[F][B]);
        if (New)
          It->second = {Opt.BlockAddr[F][B], F, B};
        else if (It->second.OptAddr != Opt.BlockAddr[F][B])
          It->second.OptAddr = 0;
      }
    }
    return I == Base.Instrs.size();
  }

  /// .data/.bss keep their addresses and initial contents.
  bool sameRamData() const {
    if (Base.RamCodeBegin != Opt.RamCodeBegin || Opt.RamEnd < Base.RamEnd ||
        Base.RamCodeBegin < Base.Map.RamBase)
      return false;
    size_t DataBytes = Base.RamCodeBegin - Base.Map.RamBase;
    if (DataBytes > Base.RamBytes.size() || DataBytes > Opt.RamBytes.size() ||
        std::memcmp(Base.RamBytes.data(), Opt.RamBytes.data(), DataBytes))
      return false;
    for (const auto &[Name, Addr] : Base.SymbolAddr) {
      if (!Base.Map.inRam(Addr) || Addr >= Base.RamCodeBegin)
        continue;
      auto It = Opt.SymbolAddr.find(Name);
      if (It == Opt.SymbolAddr.end() || It->second != Addr)
        return false;
    }
    return true;
  }

  /// The optimized address of the baseline block at \p BaseAddr, or 0.
  uint32_t optAddr(uint32_t BaseAddr) const {
    auto It = Blocks.find(BaseAddr);
    return It == Blocks.end() ? 0 : It->second.OptAddr;
  }

  void set(size_t J, uint64_t Exec, uint64_t Skipped = 0) {
    InstrCounts &C = Out.Instrs[J];
    C.Exec = Exec;
    C.Skipped = Skipped;
    if (Opt.Instrs[J].I.Kind == OpKind::LdrLit)
      C.LoadData[static_cast<unsigned>(
          Opt.Map.regionOf(Opt.Instrs[J].TargetAddr))] = Exec;
  }

  /// Opt instruction \p J is `ldr Rt, =X` under \p CC with X == \p Want.
  bool isLiteral(size_t J, Reg Rt, Cond CC, uint32_t Want) const {
    const PlacedInstr &Q = Opt.Instrs[J];
    return Want != 0 && Q.I.Kind == OpKind::LdrLit && Q.I.Regs[0] == Rt &&
           Q.I.CondCode == CC && !Q.I.SetsFlags &&
           Opt.Map.isMapped(Q.TargetAddr) &&
           Opt.Map.isMapped(Q.TargetAddr + 3) &&
           Opt.initialWord(Q.TargetAddr) == Want;
  }

  /// Matches block (F, B): base [I, IE) against opt [J, JE).
  bool block(unsigned F, unsigned B, size_t I, size_t IE, size_t J,
             size_t JE) {
    if (I == IE)
      return J == JE; // an empty block never counts, so must stay empty
    for (; I != IE; ++I) {
      const PlacedInstr &P = Base.Instrs[I];
      if (J != JE && Opt.Instrs[J].I == P.I) {
        const InstrCounts &C = BP.Instrs[I];
        if (P.I.Kind == OpKind::LdrLit) {
          set(J, C.Exec, C.Skipped);
        } else {
          Out.Instrs[J] = C;
        }
        ++J;
        continue;
      }
      size_t N = rewrite(F, B, I, I + 1 == IE, J, JE);
      if (N == 0)
        return false;
      J += N;
    }
    if (J == JE)
      return true;
    return J + 1 == JE && fallThrough(F, B, IE - 1, J);
  }

  /// Matches the Figure 4 sequence replacing base instruction \p I at opt
  /// \p J; returns the number of opt instructions it spans, 0 if none.
  size_t rewrite(unsigned F, unsigned B, size_t I, bool Last, size_t J,
                 size_t JE) {
    const PlacedInstr &P = Base.Instrs[I];
    const InstrCounts &C = BP.Instrs[I];
    if (C.Skipped != 0 ||
        (P.I.CondCode != Cond::AL && P.I.Kind != OpKind::BCond))
      return 0;
    uint32_t Target = optAddr(P.TargetAddr);
    size_t Room = JE - J;
    switch (P.I.Kind) {
    case OpKind::Bl:
      if (Room < 2 || !isLiteral(J, ScratchReg, Cond::AL, Target) ||
          Opt.Instrs[J + 1].I != blx(ScratchReg))
        return 0;
      set(J, C.Exec);
      set(J + 1, C.Exec);
      return 2;
    case OpKind::B:
      if (Room < 1 || !isLiteral(J, PC, Cond::AL, Target))
        return 0;
      set(J, C.Exec);
      return 1;
    case OpKind::BCond:
      return Last && condSequence(F, B, J, JE, P.I.CondCode, Target, C)
                 ? 4
                 : 0;
    case OpKind::Cbz:
    case OpKind::Cbnz: {
      // The inserted cmp clobbers the flags cbz leaves alone.
      auto It = Blocks.find(P.TargetAddr);
      if (!Last || Room < 1 || It == Blocks.end() ||
          B + 1 >= Base.BlockAddr[F].size() ||
          Opt.Instrs[J].I != cmpImm(P.I.Regs[0], 0) ||
          !setsFlagsFirst(It->second.F, It->second.B) ||
          !setsFlagsFirst(F, B + 1))
        return 0;
      Cond CC = P.I.Kind == OpKind::Cbz ? Cond::EQ : Cond::NE;
      if (!condSequence(F, B, J + 1, JE, CC, Target, C))
        return 0;
      set(J, C.Exec);
      return 5;
    }
    default:
      return 0;
    }
  }

  /// ite CC; ldrCC r7,=Taken; ldr!CC r7,=next block; bx r7 at opt \p J,
  /// replacing a conditional transfer with counts \p C.
  bool condSequence(unsigned F, unsigned B, size_t J, size_t JE, Cond CC,
                    uint32_t Taken, const InstrCounts &C) {
    if (JE - J < 4 || B + 1 >= Opt.BlockAddr[F].size() ||
        Opt.Instrs[J].I != ite(CC) ||
        !isLiteral(J + 1, ScratchReg, CC, Taken) ||
        !isLiteral(J + 2, ScratchReg, invertCond(CC),
                   Opt.BlockAddr[F][B + 1]) ||
        Opt.Instrs[J + 3].I != bx(ScratchReg))
      return false;
    uint64_t E = C.Exec, T = C.Taken;
    // Predicated on CC like the loads, ite itself is skipped when CC fails.
    set(J, T, E - T);
    set(J + 1, T, E - T);
    set(J + 2, E - T, T);
    set(J + 3, E);
    return true;
  }

  /// The appended `ldr pc, =next` at opt \p J after base block (F, B),
  /// whose last instruction is \p K.
  bool fallThrough(unsigned F, unsigned B, size_t K, size_t J) {
    const PlacedInstr &Last = Base.Instrs[K];
    if (Last.I.isTerminator() || B + 1 >= Base.BlockAddr[F].size() ||
        !isLiteral(J, PC, Cond::AL, Opt.BlockAddr[F][B + 1]))
      return false;
    uint64_t Reached = BP.Instrs[K].Exec + BP.Instrs[K].Skipped;
    if (!Last.I.isCall()) {
      set(J, Reached);
      return true;
    }
    // A call falls through only when it returns, and the run's halt may
    // sit inside it. Its returns are the next block's entries less the
    // direct branches into that block, provided no literal (the only
    // other source of a code address) can jump there.
    const auto &[NI, NE] = BaseRange[F][B + 1];
    uint32_t Next = Base.BlockAddr[F][B + 1];
    if (NI == NE)
      return false;
    countInflow();
    if (LiteralTargets.count(Next))
      return false;
    auto It = DirectIn.find(Next);
    uint64_t Branched = It == DirectIn.end() ? 0 : It->second;
    uint64_t Entries = BP.BlockCounts[F][B + 1];
    if (Branched > Entries || Entries - Branched > Reached)
      return false;
    set(J, Entries - Branched);
    return true;
  }

  /// Base block (F, B) writes the flags before anything reads them.
  bool setsFlagsFirst(unsigned F, unsigned B) const {
    for (size_t I = BaseRange[F][B].first; I != BaseRange[F][B].second;
         ++I) {
      const Instr &In = Base.Instrs[I].I;
      if (In.CondCode != Cond::AL || In.Kind == OpKind::Adc ||
          In.Kind == OpKind::Sbc || In.isCall())
        return false;
      if (In.SetsFlags)
        return true;
    }
    return false;
  }

  /// Per code address, the baseline's direct-branch entries, and the set
  /// of code addresses some literal holds; built on first use.
  void countInflow() {
    if (InflowCounted)
      return;
    InflowCounted = true;
    for (size_t I = 0, N = Base.Instrs.size(); I != N; ++I) {
      const PlacedInstr &P = Base.Instrs[I];
      const InstrCounts &C = BP.Instrs[I];
      switch (P.I.Kind) {
      case OpKind::B:
      case OpKind::Bl:
        DirectIn[P.TargetAddr] += C.Exec;
        break;
      case OpKind::BCond:
      case OpKind::Cbz:
      case OpKind::Cbnz:
        DirectIn[P.TargetAddr] += C.Taken;
        break;
      case OpKind::LdrLit:
        if (Base.Map.isMapped(P.TargetAddr))
          LiteralTargets.insert(Base.initialWord(P.TargetAddr) & ~1u);
        break;
      default:
        break;
      }
    }
  }

  const Image &Base;
  const ExecutionProfile &BP;
  const Image &Opt;
  ExecutionProfile &Out;
  /// Base instruction range [first, second) per block.
  std::vector<std::vector<std::pair<size_t, size_t>>> BaseRange;
  std::unordered_map<uint32_t, BlockRef> Blocks;
  bool InflowCounted = false;
  std::unordered_map<uint32_t, uint64_t> DirectIn;
  std::unordered_set<uint32_t> LiteralTargets;
};

} // namespace

bool ramloc::deriveOptimizedProfile(const Image &Base,
                                    const ExecutionProfile &BaseProfile,
                                    const Image &Opt, ExecutionProfile &Out,
                                    std::string *Why) {
  const char *Reason = ProfileDeriver(Base, BaseProfile, Opt, Out).run();
  if (Reason && Why)
    *Why = Reason;
  return Reason == nullptr;
}
