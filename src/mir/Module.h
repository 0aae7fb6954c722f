//===- mir/Module.h - machine IR containers ---------------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine IR the optimization operates on: a Module of Functions made
/// of BasicBlocks of Instrs, plus data objects assigned to flash (.rodata)
/// or RAM (.data/.bss). Each basic block records its "home" memory, which
/// the optimization rewrites from flash to RAM for the selected set R.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_MIR_MODULE_H
#define RAMLOC_MIR_MODULE_H

#include "isa/Instr.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ramloc {

/// Which physical memory something lives in.
enum class MemKind : uint8_t {
  Flash,
  Ram,
};

/// A maximal straight-line code sequence; control enters at the top and
/// leaves via the terminator (or falls through to the next block).
struct BasicBlock {
  /// Label, unique within the enclosing function.
  std::string Label;
  std::vector<Instr> Instrs;
  /// The memory this block is placed in. The optimization flips selected
  /// blocks to MemKind::Ram; the linker then moves them to .ramcode.
  MemKind Home = MemKind::Flash;

  BasicBlock() = default;
  explicit BasicBlock(std::string Label) : Label(std::move(Label)) {}

  bool empty() const { return Instrs.empty(); }

  /// The terminator, or nullptr if the block falls through.
  const Instr *terminator() const {
    if (Instrs.empty() || !Instrs.back().isTerminator())
      return nullptr;
    return &Instrs.back();
  }
};

/// A function: an ordered list of basic blocks; entry is Blocks[0].
struct Function {
  std::string Name;
  std::vector<BasicBlock> Blocks;
  /// False for "library" code the optimization must not touch. The paper's
  /// prototype cannot see statically linked library code (Section 6); we
  /// reproduce that limitation by marking soft-float helpers and similar
  /// routines non-optimizable.
  bool Optimizable = true;

  Function() = default;
  explicit Function(std::string Name) : Name(std::move(Name)) {}

  /// Index of the block labelled \p Label, or -1.
  int blockIndex(const std::string &Label) const;

  /// Total code bytes of all blocks (excludes literal pools).
  unsigned codeSizeBytes() const;
};

/// A statically allocated data object.
struct DataObject {
  enum class Section : uint8_t {
    Rodata, ///< constants, stay in flash
    Data,   ///< initialised variables, copied to RAM at startup
    Bss,    ///< zero-initialised RAM
  };

  std::string Name;
  Section Sect = Section::Data;
  /// Initial contents; for Bss this is empty and Size is used instead.
  std::vector<uint8_t> Bytes;
  uint32_t Size = 0;
  uint32_t Align = 4;

  uint32_t sizeBytes() const {
    return Sect == Section::Bss ? Size
                                : static_cast<uint32_t>(Bytes.size());
  }
};

/// A whole program: functions plus data, with a designated entry function.
struct Module {
  std::string Name = "module";
  std::vector<Function> Functions;
  std::vector<DataObject> Data;
  std::string EntryFunction = "main";

  Function *findFunction(const std::string &Name);
  const Function *findFunction(const std::string &Name) const;
  int functionIndex(const std::string &Name) const;

  DataObject *findData(const std::string &Name);
  const DataObject *findData(const std::string &Name) const;

  /// Appends a word-aligned .rodata object built from 32-bit words.
  DataObject &addRodataWords(const std::string &Name,
                             const std::vector<uint32_t> &Words);
  /// Appends a .data object built from 32-bit words.
  DataObject &addDataWords(const std::string &Name,
                           const std::vector<uint32_t> &Words);
  /// Appends an uninitialised .bss object of \p Bytes bytes.
  DataObject &addBss(const std::string &Name, uint32_t Bytes,
                     uint32_t Align = 4);

  /// Count of blocks across all functions.
  unsigned numBlocks() const;
};

} // namespace ramloc

#endif // RAMLOC_MIR_MODULE_H
