//===- beebs/Codegen.h - benchmark code generator ---------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small code generator used to express the BEEBS-style workloads once
/// and emit them at five fidelity levels standing in for GCC -O0/-O1/-O2/
/// -O3/-Os (the paper compiles BEEBS with GCC 4.8.2 at all five):
///
///   O0  every local lives in a stack slot; each statement loads its
///       operands and stores its result (GCC -O0 shape)
///   O1  locals in callee-saved registers
///   O2  O1 + benchmarks unroll marked inner loops 2x
///   O3  O1 + unroll 4x
///   Os  O1 (compact; no unrolling)
///
/// The generator reserves r7 (the instrumentation scratch) and r12, and
/// never allocates locals in r0-r3, so calls need no caller-save logic.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_BEEBS_CODEGEN_H
#define RAMLOC_BEEBS_CODEGEN_H

#include "mir/Module.h"

#include <initializer_list>
#include <string>
#include <vector>

namespace ramloc {

/// The five GCC-style optimisation levels of the paper's evaluation.
enum class OptLevel : uint8_t { O0, O1, O2, O3, Os };

const char *optLevelName(OptLevel L);
/// Inverse of optLevelName; false when \p Name is not a level.
bool optLevelFromName(const std::string &Name, OptLevel &Out);
inline constexpr OptLevel AllOptLevels[] = {
    OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3, OptLevel::Os};

/// A virtual local variable handle.
struct Var {
  int Id = -1;
};

/// Binary operations the generator knows how to emit.
enum class BinOp : uint8_t {
  Add,
  Sub,
  Mul,
  And,
  Orr,
  Eor,
  Lsl,
  Lsr,
  Asr,
  Udiv,
  Sdiv,
};

/// Comparison conditions for conditional branches; S* are signed.
enum class CmpOp : uint8_t {
  Eq,
  Ne,
  SLt,
  SLe,
  SGt,
  SGe,
  ULo,
  ULs,
  UHi,
  UHs,
};

/// Builds one function. Declare all params/locals, call prologue(), then
/// emit blocks and statements, then finish().
class FuncBuilder {
public:
  FuncBuilder(Module &M, std::string Name, OptLevel Level,
              bool Optimizable = true);

  /// Declares the next incoming parameter (r0, r1, ...; max 4).
  Var param(const std::string &Name);
  /// Declares a local variable.
  Var local(const std::string &Name);

  /// Emits push/stack-frame setup. Call after all declarations.
  void prologue();

  /// Starts a new basic block.
  void block(const std::string &Label);

  /// Unroll factor benchmarks should apply to marked inner loops.
  unsigned unroll() const;
  OptLevel level() const { return Level; }

  // --- statements ---------------------------------------------------------
  void setImm(Var D, uint32_t Imm);
  void setVar(Var D, Var S);
  /// D = address of module symbol (data object or function).
  void addrOf(Var D, const std::string &Sym);

  void op(BinOp O, Var D, Var A, Var B);
  void opImm(BinOp O, Var D, Var A, int32_t Imm);

  /// Word/byte loads and stores, immediate offset.
  void loadW(Var D, Var Base, int32_t Off = 0);
  void storeW(Var S, Var Base, int32_t Off = 0);
  void loadB(Var D, Var Base, int32_t Off = 0);
  void storeB(Var S, Var Base, int32_t Off = 0);
  /// Indexed forms: address = Base + (Idx << ScaleShift).
  void loadWIdx(Var D, Var Base, Var Idx, unsigned ScaleShift = 2);
  void storeWIdx(Var S, Var Base, Var Idx, unsigned ScaleShift = 2);
  void loadBIdx(Var D, Var Base, Var Idx);
  void storeBIdx(Var S, Var Base, Var Idx);

  // --- control flow --------------------------------------------------------
  void br(const std::string &Target);
  void brCmpImm(CmpOp O, Var A, int32_t Imm, const std::string &Target);
  void brCmp(CmpOp O, Var A, Var B, const std::string &Target);

  /// Calls \p Callee with up to 4 arguments; result (r0) is discarded.
  void call(const std::string &Callee, std::initializer_list<Var> Args);
  /// Calls and assigns r0 to \p D.
  void callInto(Var D, const std::string &Callee,
                std::initializer_list<Var> Args);

  void retVar(Var V);
  void retVoid();
  /// mov r0, V; bkpt — halts the simulation with V as the exit checksum.
  void haltWith(Var V);

  /// Appends the finished function to the module.
  void finish();

private:
  struct VarInfo {
    std::string Name;
    bool InReg = false;
    Reg R = R0;
    int Slot = -1; ///< stack word index when spilled
  };

  Reg use(Var V, Reg Scratch);
  void def(Var V, Reg Computed);
  /// Register a result should be computed into.
  Reg target(Var V, Reg Scratch);
  BasicBlock &cur();
  Cond condFor(CmpOp O) const;

  Module &M;
  Function F;
  OptLevel Level;
  std::vector<VarInfo> Vars;
  unsigned NumParams = 0;
  unsigned NumSlots = 0;
  uint32_t SaveMask = 0;
  bool DidPrologue = false;
  bool Finished = false;
};

} // namespace ramloc

#endif // RAMLOC_BEEBS_CODEGEN_H
