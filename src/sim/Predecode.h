//===- sim/Predecode.h - pre-resolved interpreter operands ------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the interpreter's dispatch loop reads about an instruction
/// depends only on the image, never on machine state. predecodeImage()
/// copies it, once per simulation, into a dense array parallel to
/// Image::Instrs: the opcode, condition, operands and both successors,
/// resolved to instruction indices. The loop in sim/Simulator.cpp reads
/// one DecodedInstr per step and never the PlacedInstr behind it.
/// Nothing here is timed: cycles are priced afterwards from the run's
/// ExecutionProfile (sim/ExecutionProfile.h).
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

/// One pre-resolved instruction: everything the dispatch loop needs that
/// does not depend on machine state.
struct DecodedInstr {
  /// Copies of the placed instruction's operands (Instr::Regs/Imm).
  Reg Regs[4] = {R0, R0, R0, R0};
  int32_t Imm = 0;
  /// Fall-through successor (Addr + Size).
  uint32_t NextAddr = 0;
  /// Resolved branch target / literal-pool slot (PlacedInstr::TargetAddr).
  uint32_t TargetAddr = 0;
  /// Indices of the instructions at NextAddr and TargetAddr, or
  /// NoInstrIdx: direct transfers follow them without an address lookup.
  uint32_t NextIdx = NoInstrIdx;
  uint32_t TargetIdx = NoInstrIdx;
  OpKind Kind = OpKind::Nop;
  Cond CondCode = Cond::AL;
  bool SetsFlags = false;
  /// True for predicated non-branch instructions: the loop must gate
  /// them on their condition before executing.
  bool CheckCond = false;
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
