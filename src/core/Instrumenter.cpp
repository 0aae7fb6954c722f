//===- core/Instrumenter.cpp - Figure 4 code transformation --------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "core/Instrumenter.h"

#include "core/Figure4.h"
#include "mir/CFG.h"

#include <cassert>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

using namespace ramloc;

namespace {

/// Appends \p Row's sequence replacing \p Transfer (a default Instr for
/// a fall-through), falling through to the block labelled \p Fall.
void emit(std::vector<Instr> &Out, const Figure4Row &Row,
          const Instr &Transfer, const std::string &Fall) {
  for (const Figure4Slot &S : Row.Slots)
    Out.push_back(figure4Instr(S, Transfer,
                               S.Literal == Figure4Literal::Taken ? Transfer.Sym
                               : S.Literal == Figure4Literal::Fall
                                   ? Fall
                                   : std::string()));
}

} // namespace

Module ramloc::applyPlacement(const Module &M, const ModelParams &MP,
                              const Assignment &InRam,
                              InstrumenterStats *Stats) {
  assert(InRam.size() == MP.numBlocks() && "assignment size mismatch");
  InstrumenterStats Local;
  InstrumenterStats &St = Stats ? *Stats : Local;
  auto inRam = [&](unsigned F, int B) {
    assert(B >= 0 && "block expected");
    return InRam[MP.globalIndex(F, static_cast<unsigned>(B))];
  };
  Module Out = M;
  for (unsigned F = 0, NF = Out.Functions.size(); F != NF; ++F) {
    Function &Fn = Out.Functions[F];
    CFG G = CFG::build(M.Functions[F]);
    for (unsigned B = 0, NB = Fn.Blocks.size(); B != NB; ++B) {
      BasicBlock &BB = Fn.Blocks[B];
      bool Home = inRam(F, B);
      if (Home) {
        BB.Home = MemKind::Ram;
        ++St.BlocksMoved;
      }

      // Each call into the other memory.
      std::vector<Instr> Instrs;
      Instrs.reserve(BB.Instrs.size());
      for (Instr &I : BB.Instrs) {
        int Callee = I.Kind == OpKind::Bl ? M.functionIndex(I.Sym) : -1;
        assert((I.Kind != OpKind::Bl || Callee >= 0) &&
               "call to unknown function");
        if (Callee >= 0 && inRam(Callee, 0) != Home) {
          emit(Instrs, figure4Row(Figure4Kind::Call), I, {});
          ++St.CallsRewritten;
        } else {
          Instrs.push_back(std::move(I));
        }
      }
      BB.Instrs = std::move(Instrs);

      // The block's end, when an edge out of it crosses.
      const BlockEdges &E = G.edges(B);
      auto crosses = [&](int Succ) {
        return Succ >= 0 && inRam(F, Succ) != Home;
      };
      const Figure4Row *Row = figure4RowEnding(M.Functions[F].Blocks[B]);
      if (!Row || (!crosses(E.TakenSucc) && !crosses(E.FallSucc)))
        continue;
      Instr Transfer;
      if (Row->Original) {
        Transfer = std::move(BB.Instrs.back());
        BB.Instrs.pop_back();
      }
      emit(BB.Instrs, *Row, Transfer,
           E.FallSucc < 0 ? std::string()
                          : Fn.Blocks[static_cast<unsigned>(E.FallSucc)].Label);
      ++(Row->Original ? St.BranchesRewritten : St.FallthroughsRewritten);
    }
  }
  return Out;
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

  /// Opt instruction \p J is \p Shape's `ldr Rt, =X` with X == \p Want.
  bool isLiteral(size_t J, const Instr &Shape, uint32_t Want) const {
    const PlacedInstr &Q = Opt.Instrs[J];
    return Want != 0 && Q.I.Kind == Shape.Kind &&
           Q.I.Regs[0] == Shape.Regs[0] && Q.I.CondCode == Shape.CondCode &&
           Q.I.SetsFlags == Shape.SetsFlags &&
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

  /// Opt [J, JE) starts with \p Row replacing \p Transfer, whose
  /// literals hold \p Taken and \p Fall.
  bool matches(const Figure4Row &Row, const Instr &Transfer, uint32_t Taken,
               uint32_t Fall, size_t J, size_t JE) const {
    if (JE - J < Row.Slots.size())
      return false;
    for (const Figure4Slot &S : Row.Slots) {
      Instr Shape = figure4Instr(S, Transfer, "x");
      bool Match =
          S.Literal == Figure4Literal::None
              ? Opt.Instrs[J].I == Shape
              : isLiteral(J, Shape,
                          S.Literal == Figure4Literal::Taken ? Taken : Fall);
      if (!Match)
        return false;
      ++J;
    }
    return true;
  }

  /// Counts \p Row at opt \p J, replacing a transfer run \p E times and
  /// taken \p T of them.
  void count(const Figure4Row &Row, size_t J, uint64_t E, uint64_t T) {
    for (const Figure4Slot &S : Row.Slots) {
      uint64_t Run = S.Count == Figure4Count::Every   ? E
                     : S.Count == Figure4Count::Taken ? T
                                                      : E - T;
      set(J++, Run, E - Run);
    }
  }

  /// Matches the Figure 4 sequence replacing base instruction \p I at opt
  /// \p J; returns the number of opt instructions it spans, 0 if none.
  size_t rewrite(unsigned F, unsigned B, size_t I, bool Last, size_t J,
                 size_t JE) {
    const PlacedInstr &P = Base.Instrs[I];
    const InstrCounts &C = BP.Instrs[I];
    const Figure4Row *Row = figure4RowFor(P.I.Kind);
    if (!Row || C.Skipped != 0 ||
        (P.I.CondCode != Cond::AL && P.I.Kind != OpKind::BCond))
      return 0;
    // Only a block's last transfer falls through to the next block.
    uint32_t Fall = Last && B + 1 < Opt.BlockAddr[F].size()
                        ? Opt.BlockAddr[F][B + 1]
                        : 0;
    if (!matches(*Row, P.I, optAddr(P.TargetAddr), Fall, J, JE))
      return 0;
    if (P.I.Kind == OpKind::Cbz || P.I.Kind == OpKind::Cbnz) {
      // The inserted cmp clobbers the flags cbz leaves alone.
      auto It = Blocks.find(P.TargetAddr);
      if (It == Blocks.end() || !setsFlagsFirst(It->second.F, It->second.B) ||
          !setsFlagsFirst(F, B + 1))
        return 0;
    }
    count(*Row, J, C.Exec, C.Taken);
    return Row->Slots.size();
  }

  /// The appended fall-through row at opt \p J after base block (F, B),
  /// whose last instruction is \p K.
  bool fallThrough(unsigned F, unsigned B, size_t K, size_t J) {
    const Figure4Row &Row = figure4Row(Figure4Kind::FallThrough);
    const PlacedInstr &Last = Base.Instrs[K];
    if (Last.I.isTerminator() || B + 1 >= Base.BlockAddr[F].size() ||
        !matches(Row, Instr(), 0, Opt.BlockAddr[F][B + 1], J, J + 1))
      return false;
    uint64_t Reached = BP.Instrs[K].Exec + BP.Instrs[K].Skipped;
    if (!Last.I.isCall()) {
      count(Row, J, Reached, 0);
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
    count(Row, J, Entries - Branched, 0);
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
      if (P.I.Kind == OpKind::B || P.I.Kind == OpKind::Bl)
        DirectIn[P.TargetAddr] += C.Exec;
      else if (P.I.isCondBranch())
        DirectIn[P.TargetAddr] += C.Taken;
      else if (P.I.Kind == OpKind::LdrLit && Base.Map.isMapped(P.TargetAddr))
        LiteralTargets.insert(Base.initialWord(P.TargetAddr) & ~1u);
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
