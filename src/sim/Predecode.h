//===- sim/Predecode.h - pre-resolved interpreter dispatch ------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter's per-step decode work — operand and successor lookup,
/// condition-gate detection — depends only on the image, never on machine
/// state. predecodeImage() hoists all of it out of the hot loop into a
/// dense array parallel to Image::Instrs, built once per simulation, so
/// each step is an index and a handler dispatch on the pre-resolved
/// opcode. Nothing here is timed: cycles are priced afterwards from the
/// run's ExecutionProfile (sim/ExecutionProfile.h).
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_SIM_PREDECODE_H
#define RAMLOC_SIM_PREDECODE_H

#include "layout/Image.h"

#include <cstdint>
#include <vector>

namespace ramloc {

/// The index of "no instruction starts here" (including ExitAddress).
inline constexpr uint32_t NoInstrIdx = UINT32_MAX;

/// Image::instrIndexAt, with NoInstrIdx for a miss.
inline uint32_t decodedIndexAt(const Image &Img, uint32_t Addr) {
  int Idx = Img.instrIndexAt(Addr);
  return Idx < 0 ? NoInstrIdx : static_cast<uint32_t>(Idx);
}

/// One pre-resolved instruction: everything the interpreter's hot loop
/// needs that does not depend on machine state.
struct DecodedInstr {
  /// The placed instruction, for operand access in the handlers.
  const PlacedInstr *P = nullptr;
  /// Fall-through successor (Addr + Size).
  uint32_t NextAddr = 0;
  /// Resolved branch target / literal-pool slot (copy of P->TargetAddr).
  uint32_t TargetAddr = 0;
  /// Indices of the instructions at NextAddr and TargetAddr, or
  /// NoInstrIdx: direct transfers follow them without an address lookup.
  uint32_t NextIdx = NoInstrIdx;
  uint32_t TargetIdx = NoInstrIdx;
  uint16_t FuncIdx = 0;
  uint16_t BlockIdx = 0;
  OpKind Kind = OpKind::Nop;
  Cond CondCode = Cond::AL;
  /// True for predicated non-branch instructions: the hot loop must gate
  /// them on condPasses before executing.
  bool CheckCond = false;
  bool IsBlockHead = false;
};

/// The dense decode table: DecodedInstr[i] describes Image::Instrs[i].
/// Fall-through and direct transfers follow NextIdx/TargetIdx; only
/// computed transfers (bx/blx reg, pop {pc}, ldr pc) go through
/// Image::instrIndexAt.
using DecodedImage = std::vector<DecodedInstr>;

/// Builds the decode table for \p Img.
DecodedImage predecodeImage(const Image &Img);

} // namespace ramloc

#endif // RAMLOC_SIM_PREDECODE_H
