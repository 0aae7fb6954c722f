//===- layout/Linker.cpp - address assignment and resolution ------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "layout/Linker.h"

#include "isa/Encoding.h"
#include "support/Format.h"
#include "support/Hash.h"

#include <algorithm>
#include <cassert>

using namespace ramloc;

namespace {

uint32_t alignUp(uint32_t V, uint32_t A) {
  assert(A != 0 && (A & (A - 1)) == 0 && "alignment must be a power of two");
  return (V + A - 1) & ~(A - 1);
}

/// One literal pool under construction: unique (symbol|constant) slots.
class LiteralPool {
public:
  /// Returns the slot index for the given literal, adding it if new.
  unsigned slotFor(const std::string &Sym, int32_t Const) {
    for (unsigned I = 0, E = Entries.size(); I != E; ++I)
      if (Entries[I].Sym == Sym && Entries[I].Const == Const)
        return I;
    Entries.push_back({Sym, Const});
    return Entries.size() - 1;
  }

  unsigned sizeBytes() const { return Entries.size() * 4; }

  struct Entry {
    std::string Sym; ///< empty for plain constants
    int32_t Const = 0;
  };
  std::vector<Entry> Entries;
};

class LinkerImpl {
public:
  LinkerImpl(const Module &M, const LinkOptions &Opts) : M(M), Opts(Opts) {
    Img.Map = Opts.Map;
  }

  LinkResult run() {
    layoutData();
    layoutCode();
    // Before anything is written at a placed address: code laid out past
    // the end of a memory must be diagnosed, not materialized.
    checkBudgets();
    if (!Errors.empty())
      return {std::move(Img), std::move(Errors)};
    resolveSymbols();
    materialize();
    return {std::move(Img), std::move(Errors)};
  }

private:
  void error(const char *Fmt, ...) __attribute__((format(printf, 2, 3))) {
    va_list Args;
    va_start(Args, Fmt);
    Errors.push_back(formatStringV(Fmt, Args));
    va_end(Args);
  }

  /// Assigns addresses to .rodata (flash) and .data/.bss (RAM). Rodata is
  /// placed after code, so this pass only decides RAM addresses; rodata
  /// offsets are fixed up in layoutCode().
  void layoutData() {
    RamCursor = Opts.Map.RamBase;
    for (const DataObject &D : M.Data) {
      if (D.Sect != DataObject::Section::Data)
        continue;
      RamCursor = alignUp(RamCursor, D.Align);
      DataAddr[D.Name] = RamCursor;
      RamCursor += D.sizeBytes();
      Img.Sizes.Data += D.sizeBytes();
    }
    for (const DataObject &D : M.Data) {
      if (D.Sect != DataObject::Section::Bss)
        continue;
      RamCursor = alignUp(RamCursor, D.Align);
      DataAddr[D.Name] = RamCursor;
      RamCursor += D.sizeBytes();
      Img.Sizes.Bss += D.sizeBytes();
    }
  }

  /// Assigns addresses to every block (flash or RAM by Home), builds
  /// per-function literal pools in each region, then places .rodata and the
  /// .data load image in flash.
  void layoutCode() {
    uint32_t FlashCursor = Opts.Map.FlashBase;
    uint32_t RamCodeStart = alignUp(RamCursor, 4);
    RamCursor = RamCodeStart;
    Img.RamCodeBegin = RamCodeStart;
    Img.BlockAddr.resize(M.Functions.size());

    for (unsigned F = 0, NF = M.Functions.size(); F != NF; ++F) {
      const Function &Fn = M.Functions[F];
      Img.BlockAddr[F].assign(Fn.Blocks.size(), 0);
      LiteralPool FlashPool, RamPool;

      // Place instructions region by region, preserving block order.
      for (unsigned B = 0, NB = Fn.Blocks.size(); B != NB; ++B) {
        const BasicBlock &BB = Fn.Blocks[B];
        bool InRam = BB.Home == MemKind::Ram;
        uint32_t &Cursor = InRam ? RamCursor : FlashCursor;
        Cursor = alignUp(Cursor, 2);
        Img.BlockAddr[F][B] = Cursor;
        checkFallthroughAdjacency(F, B);

        for (const Instr &I : BB.Instrs) {
          PlacedInstr P;
          P.I = I;
          P.Addr = Cursor;
          P.Size = static_cast<uint8_t>(encodingSizeBytes(I));
          P.FuncIdx = static_cast<uint16_t>(F);
          P.BlockIdx = static_cast<uint16_t>(B);
          P.IsBlockHead = BB.Instrs.data() == &I;
          if (I.Kind == OpKind::LdrLit) {
            LiteralPool &Pool = InRam ? RamPool : FlashPool;
            // Remember the slot; converted to an address once the pool's
            // base is known.
            P.TargetAddr = Pool.slotFor(I.Sym, I.Imm);
          }
          Cursor += P.Size;
          Img.Instrs.push_back(std::move(P));
          (InRam ? Img.Sizes.RamCode : Img.Sizes.FlashCode) += P.Size;
        }
      }

      // Function literal pools, one per region.
      FlashCursor = alignUp(FlashCursor, 4);
      uint32_t FlashPoolBase = FlashCursor;
      FlashCursor += FlashPool.sizeBytes();
      Img.Sizes.FlashPool += FlashPool.sizeBytes();

      RamCursor = alignUp(RamCursor, 4);
      uint32_t RamPoolBase = RamCursor;
      RamCursor += RamPool.sizeBytes();
      Img.Sizes.RamPool += RamPool.sizeBytes();

      // Fix up slot indices into absolute pool-slot addresses.
      for (PlacedInstr &P : Img.Instrs) {
        if (P.FuncIdx != F || P.I.Kind != OpKind::LdrLit)
          continue;
        bool InRam = M.Functions[F].Blocks[P.BlockIdx].Home == MemKind::Ram;
        uint32_t Base = InRam ? RamPoolBase : FlashPoolBase;
        P.TargetAddr = Base + P.TargetAddr * 4;
      }
      FuncPools.push_back({std::move(FlashPool), FlashPoolBase,
                           std::move(RamPool), RamPoolBase});
    }

    // .rodata after flash code.
    Img.RodataBegin = FlashCursor;
    for (const DataObject &D : M.Data) {
      if (D.Sect != DataObject::Section::Rodata)
        continue;
      FlashCursor = alignUp(FlashCursor, D.Align);
      DataAddr[D.Name] = FlashCursor;
      FlashCursor += D.sizeBytes();
      Img.Sizes.Rodata += D.sizeBytes();
    }
    Img.RodataEnd = FlashCursor;

    // .data load image lives in flash after rodata (copied out at boot).
    FlashCursor = alignUp(FlashCursor, 4);
    DataLoadBase = FlashCursor;
    FlashCursor += Img.Sizes.Data;

    FlashEnd = FlashCursor;
    Img.RamEnd = RamCursor;
  }

  /// A fallthrough block must be immediately followed, in its own region,
  /// by its function-order successor. The instrumenter guarantees this by
  /// rewriting every cross-memory fallthrough; a violation here means the
  /// transformation (or hand-written input) is broken.
  void checkFallthroughAdjacency(unsigned F, unsigned B) {
    const Function &Fn = M.Functions[F];
    if (B == 0)
      return;
    const BasicBlock &Prev = Fn.Blocks[B - 1];
    const Instr *Term = Prev.terminator();
    bool PrevFallsThrough =
        !Term || Term->Kind == OpKind::BCond || Term->Kind == OpKind::Cbz ||
        Term->Kind == OpKind::Cbnz;
    if (!PrevFallsThrough)
      return;
    if (Prev.Home != Fn.Blocks[B].Home)
      error("%s: block '%s' falls through to '%s' in a different memory "
            "(missing instrumentation)",
            Fn.Name.c_str(), Prev.Label.c_str(),
            Fn.Blocks[B].Label.c_str());
  }

  /// Looks up a symbol in priority order: block label within \p F, then
  /// function, then data object. Returns 0 and records an error if absent.
  uint32_t resolve(unsigned F, const std::string &Sym) {
    int BIdx = M.Functions[F].blockIndex(Sym);
    if (BIdx >= 0)
      return Img.BlockAddr[F][static_cast<unsigned>(BIdx)];
    int FIdx = M.functionIndex(Sym);
    if (FIdx >= 0)
      return Img.BlockAddr[static_cast<unsigned>(FIdx)].empty()
                 ? 0
                 : Img.BlockAddr[static_cast<unsigned>(FIdx)][0];
    auto It = DataAddr.find(Sym);
    if (It != DataAddr.end())
      return It->second;
    error("unresolved symbol '%s'", Sym.c_str());
    return 0;
  }

  void resolveSymbols() {
    for (PlacedInstr &P : Img.Instrs) {
      const Instr &I = P.I;
      switch (I.Kind) {
      case OpKind::B:
      case OpKind::BCond:
      case OpKind::Cbz:
      case OpKind::Cbnz: {
        P.TargetAddr = resolve(P.FuncIdx, I.Sym);
        if (P.TargetAddr == 0)
          break; // unresolved; already diagnosed
        MemKind From = Opts.Map.regionOf(P.Addr);
        MemKind To = Opts.Map.regionOf(P.TargetAddr);
        if (From != To)
          error("direct branch at 0x%08x ('%s' in %s) targets the other "
                "memory: range exceeded, must be instrumented",
                P.Addr, I.Sym.c_str(),
                M.Functions[P.FuncIdx].Name.c_str());
        break;
      }
      case OpKind::Bl: {
        P.TargetAddr = resolve(P.FuncIdx, I.Sym);
        if (P.TargetAddr == 0)
          break; // unresolved; already diagnosed
        MemKind From = Opts.Map.regionOf(P.Addr);
        MemKind To = Opts.Map.regionOf(P.TargetAddr);
        if (From != To)
          error("bl at 0x%08x to '%s' crosses memories: range exceeded, "
                "must use ldr+blx",
                P.Addr, I.Sym.c_str());
        break;
      }
      default:
        break;
      }
    }

    // Symbol table for clients (examples, tests, the simulator's data
    // accesses in workloads).
    for (unsigned F = 0, NF = M.Functions.size(); F != NF; ++F) {
      const Function &Fn = M.Functions[F];
      if (!Fn.Blocks.empty())
        Img.SymbolAddr[Fn.Name] = Img.BlockAddr[F][0];
      for (unsigned B = 0, NB = Fn.Blocks.size(); B != NB; ++B)
        Img.SymbolAddr[Fn.Name + ":" + Fn.Blocks[B].Label] =
            Img.BlockAddr[F][B];
    }
    for (const auto &[Name, Addr] : DataAddr)
      Img.SymbolAddr[Name] = Addr;

    const Function *Entry = M.findFunction(M.EntryFunction);
    assert(Entry && "verifier guarantees the entry function exists");
    Img.EntryAddr = Img.SymbolAddr[Entry->Name];
  }

  /// Fills the initial flash/RAM byte arrays: pool words, rodata, data
  /// values (in RAM, i.e. post-startup-copy state), and builds the
  /// address -> instruction maps.
  void materialize() {
    Img.FlashBytes.assign(Opts.Map.FlashSize, 0);
    Img.RamBytes.assign(Opts.Map.RamSize, 0);
    Img.FlashInstrAt.assign(Opts.Map.FlashSize / 2, 0);
    Img.RamInstrAt.assign(Opts.Map.RamSize / 2, 0);

    auto poke32 = [this](uint32_t Addr, uint32_t V) {
      std::vector<uint8_t> &Mem =
          Opts.Map.inFlash(Addr) ? Img.FlashBytes : Img.RamBytes;
      uint32_t Off = Addr - (Opts.Map.inFlash(Addr) ? Opts.Map.FlashBase
                                                    : Opts.Map.RamBase);
      assert(Off + 3 < Mem.size() && "poke out of range");
      Mem[Off] = static_cast<uint8_t>(V);
      Mem[Off + 1] = static_cast<uint8_t>(V >> 8);
      Mem[Off + 2] = static_cast<uint8_t>(V >> 16);
      Mem[Off + 3] = static_cast<uint8_t>(V >> 24);
    };

    // Literal pools.
    for (unsigned F = 0, NF = FuncPools.size(); F != NF; ++F) {
      const FuncPoolInfo &PI = FuncPools[F];
      for (unsigned S = 0, NS = PI.Flash.Entries.size(); S != NS; ++S) {
        const LiteralPool::Entry &E = PI.Flash.Entries[S];
        uint32_t V = E.Sym.empty() ? static_cast<uint32_t>(E.Const)
                                   : resolve(F, E.Sym);
        poke32(PI.FlashBase + S * 4, V);
      }
      for (unsigned S = 0, NS = PI.Ram.Entries.size(); S != NS; ++S) {
        const LiteralPool::Entry &E = PI.Ram.Entries[S];
        uint32_t V = E.Sym.empty() ? static_cast<uint32_t>(E.Const)
                                   : resolve(F, E.Sym);
        poke32(PI.RamBase + S * 4, V);
      }
    }

    // Data objects: rodata into flash, data into RAM (post-copy view) and
    // into its flash load image.
    for (const DataObject &D : M.Data) {
      if (D.Sect == DataObject::Section::Bss)
        continue; // already zero
      uint32_t Addr = DataAddr[D.Name];
      for (unsigned I = 0, E = D.Bytes.size(); I != E; ++I) {
        if (D.Sect == DataObject::Section::Rodata)
          Img.FlashBytes[Addr - Opts.Map.FlashBase + I] = D.Bytes[I];
        else
          Img.RamBytes[Addr - Opts.Map.RamBase + I] = D.Bytes[I];
      }
    }

    // Instruction maps.
    for (unsigned Idx = 0, E = Img.Instrs.size(); Idx != E; ++Idx) {
      const PlacedInstr &P = Img.Instrs[Idx];
      if (Opts.Map.inFlash(P.Addr))
        Img.FlashInstrAt[(P.Addr - Opts.Map.FlashBase) / 2] = Idx + 1;
      else
        Img.RamInstrAt[(P.Addr - Opts.Map.RamBase) / 2] = Idx + 1;
    }

    // Startup copy cost: .data + .ramcode + RAM pools, word at a time.
    uint32_t CopyBytes =
        Img.Sizes.Data + Img.Sizes.RamCode + Img.Sizes.RamPool;
    Img.StartupCopyCycles =
        Opts.CopySetupCycles +
        static_cast<uint64_t>((CopyBytes + 3) / 4) * Opts.CopyCyclesPerWord;
  }

  void checkBudgets() {
    if (FlashEnd > Opts.Map.FlashBase + Opts.Map.FlashSize)
      error("flash overflow: need %u bytes, have %u",
            FlashEnd - Opts.Map.FlashBase, Opts.Map.FlashSize);
    uint32_t RamLimit =
        Opts.Map.RamBase + Opts.Map.RamSize - Opts.StackReserve;
    if (Img.RamEnd > RamLimit)
      error("RAM overflow: data+code end 0x%08x exceeds stack reserve "
            "boundary 0x%08x",
            Img.RamEnd, RamLimit);
  }

  struct FuncPoolInfo {
    LiteralPool Flash;
    uint32_t FlashBase = 0;
    LiteralPool Ram;
    uint32_t RamBase = 0;
  };

  const Module &M;
  const LinkOptions &Opts;
  Image Img;
  std::vector<std::string> Errors;
  std::map<std::string, uint32_t> DataAddr;
  std::vector<FuncPoolInfo> FuncPools;
  uint32_t RamCursor = 0;
  uint32_t FlashEnd = 0;
  uint32_t DataLoadBase = 0;
};

} // namespace

int Image::instrIndexAt(uint32_t Addr) const {
  if (Map.inFlash(Addr)) {
    uint32_t Slot = (Addr - Map.FlashBase) / 2;
    if (Slot < FlashInstrAt.size() && FlashInstrAt[Slot] != 0)
      return static_cast<int>(FlashInstrAt[Slot]) - 1;
    return -1;
  }
  if (Map.inRam(Addr)) {
    uint32_t Slot = (Addr - Map.RamBase) / 2;
    if (Slot < RamInstrAt.size() && RamInstrAt[Slot] != 0)
      return static_cast<int>(RamInstrAt[Slot]) - 1;
    return -1;
  }
  return -1;
}

uint64_t Image::fingerprint() const {
  uint64_t H = Fnv1aOffset;
  auto word = [&H](uint64_t V) {
    // Fixed-width little-endian fold so field boundaries cannot alias.
    // Most fields are small: the zero high bytes fold as one run.
    unsigned B = 0;
    for (; V != 0; V >>= 8, ++B) {
      H ^= static_cast<unsigned char>(V);
      H *= Fnv1aPrime;
    }
    H = fnv1a64Zeros(H, 8 - B);
  };
  word(Map.FlashBase);
  word(Map.FlashSize);
  word(Map.RamBase);
  word(Map.RamSize);
  word(EntryAddr);
  word(StartupCopyCycles);
  // The memory images are mostly zero; the sparse fold skips zero runs
  // and gives the same value as a byte-by-byte fold.
  H = fnv1a64Sparse(H, std::string_view(
                           reinterpret_cast<const char *>(FlashBytes.data()),
                           FlashBytes.size()));
  word(FlashBytes.size());
  H = fnv1a64Sparse(H, std::string_view(
                           reinterpret_cast<const char *>(RamBytes.data()),
                           RamBytes.size()));
  word(RamBytes.size());
  // The byte images fix the encodings, but per-instruction profiling
  // metadata (block identity, resolved targets, operand forms) lives only
  // in the placed stream — fold it in so profiles can never be shared
  // between images that merely decode alike.
  word(Instrs.size());
  for (const PlacedInstr &P : Instrs) {
    word(P.Addr);
    word(P.Size);
    word(P.TargetAddr);
    word((static_cast<uint64_t>(P.FuncIdx) << 32) |
         (static_cast<uint64_t>(P.BlockIdx) << 16) |
         (P.IsBlockHead ? 1 : 0));
    word((static_cast<uint64_t>(static_cast<uint8_t>(P.I.Kind)) << 24) |
         (static_cast<uint64_t>(static_cast<uint8_t>(P.I.CondCode))
          << 16) |
         (P.I.SetsFlags ? 1 : 0));
    word((static_cast<uint64_t>(P.I.Regs[0]) << 24) |
         (static_cast<uint64_t>(P.I.Regs[1]) << 16) |
         (static_cast<uint64_t>(P.I.Regs[2]) << 8) | P.I.Regs[3]);
    word(static_cast<uint32_t>(P.I.Imm));
  }
  // Block-count geometry, so a profile's BlockCounts always fit.
  word(BlockAddr.size());
  for (const std::vector<uint32_t> &F : BlockAddr)
    word(F.size());
  return H;
}

uint32_t Image::initialWord(uint32_t Addr) const {
  const std::vector<uint8_t> &Mem =
      Map.inFlash(Addr) ? FlashBytes : RamBytes;
  uint32_t Off = Addr - (Map.inFlash(Addr) ? Map.FlashBase : Map.RamBase);
  assert(Off + 3 < Mem.size() && "read out of range");
  return static_cast<uint32_t>(Mem[Off]) |
         (static_cast<uint32_t>(Mem[Off + 1]) << 8) |
         (static_cast<uint32_t>(Mem[Off + 2]) << 16) |
         (static_cast<uint32_t>(Mem[Off + 3]) << 24);
}

LinkResult ramloc::linkModule(const Module &M, const LinkOptions &Opts) {
  return LinkerImpl(M, Opts).run();
}
