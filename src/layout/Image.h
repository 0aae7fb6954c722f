//===- layout/Image.h - linked executable image -----------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The linker's output: instructions with assigned addresses and resolved
/// targets, initial memory contents for both regions, and symbol/section
/// bookkeeping. The simulator executes an Image directly.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_LAYOUT_IMAGE_H
#define RAMLOC_LAYOUT_IMAGE_H

#include "layout/MemoryMap.h"
#include "mir/Module.h"

#include <map>
#include <string>
#include <vector>

namespace ramloc {

/// An instruction placed at an address with resolved symbol operands.
struct PlacedInstr {
  Instr I;
  uint32_t Addr = 0;
  /// Encoding size in bytes (2 or 4).
  uint8_t Size = 2;
  /// Resolved destination: branch/call target address, or for LdrLit the
  /// address of the literal-pool slot holding the value.
  uint32_t TargetAddr = 0;
  uint16_t FuncIdx = 0;
  uint16_t BlockIdx = 0;
  /// True for the first instruction of a basic block (profiling hook).
  bool IsBlockHead = false;
};

/// Section size summary (bytes).
struct SectionSizes {
  uint32_t FlashCode = 0;
  uint32_t FlashPool = 0; ///< literal pools for flash code
  uint32_t Rodata = 0;
  uint32_t RamCode = 0; ///< .ramcode: blocks moved to RAM
  uint32_t RamPool = 0; ///< literal pools for RAM code
  uint32_t Data = 0;
  uint32_t Bss = 0;
};

/// A fully linked program.
struct Image {
  MemoryMap Map;
  std::vector<PlacedInstr> Instrs;
  /// Initial contents of flash and of RAM-after-startup-copy. Indexed from
  /// the region base.
  std::vector<uint8_t> FlashBytes;
  std::vector<uint8_t> RamBytes;
  /// Per-halfword instruction index + 1 (0 = no instruction starts here).
  std::vector<uint32_t> FlashInstrAt;
  std::vector<uint32_t> RamInstrAt;

  uint32_t EntryAddr = 0;
  SectionSizes Sizes;
  /// Static layout bounds: .rodata is [RodataBegin, RodataEnd) in flash,
  /// after all code and literal pools; .ramcode and its pools are
  /// [RamCodeBegin, RamEnd) in RAM, after .data/.bss; the stack owns the
  /// RAM above RamEnd.
  uint32_t RodataBegin = 0;
  uint32_t RodataEnd = 0;
  uint32_t RamCodeBegin = 0;
  uint32_t RamEnd = 0;
  /// Modeled cycles for the startup loop that copies .data and .ramcode
  /// from flash to RAM (the paper: "loaded to RAM at start-up by the
  /// runtime").
  uint64_t StartupCopyCycles = 0;

  /// Address of every symbol (functions, blocks as "func:label", data).
  std::map<std::string, uint32_t> SymbolAddr;
  /// Block start addresses: BlockAddr[func][block].
  std::vector<std::vector<uint32_t>> BlockAddr;

  /// Index into Instrs of the instruction starting at \p Addr, or -1.
  int instrIndexAt(uint32_t Addr) const;

  /// Stable FNV-1a identity of everything that determines this image's
  /// execution: memory-map geometry, entry point, initial flash/RAM
  /// contents, startup-copy cost, and the placed instruction stream
  /// including its block structure. Two images with equal fingerprints
  /// execute identically given equal initial arguments — the property the
  /// execution-profile cache (sim/ExecutionProfile.h) keys on.
  uint64_t fingerprint() const;

  /// Reads a 32-bit little-endian word from the initial memory contents.
  uint32_t initialWord(uint32_t Addr) const;
};

} // namespace ramloc

#endif // RAMLOC_LAYOUT_IMAGE_H
