//===- core/BlockParams.h - model parameter extraction ----------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Extraction of the paper's per-block model parameters (Section 4.1,
/// Figure 3): size Sb, cycles Cb, frequency Fb, instrumentation costs
/// Kb/Tb (bytes/cycles, from the Figure 4 sequences), RAM-contention
/// stalls Lb, and the successor set. Blocks are numbered globally across
/// the module (function-major order).
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_CORE_BLOCKPARAMS_H
#define RAMLOC_CORE_BLOCKPARAMS_H

#include "isa/Timing.h"
#include "mir/CFG.h"
#include "mir/Frequency.h"
#include "mir/Module.h"
#include "power/PowerModel.h"

#include <string>
#include <vector>

namespace ramloc {

/// A call-site group: all `bl Callee` instructions in one block.
struct CallSite {
  /// Global block index of the callee's entry block.
  unsigned CalleeEntry = 0;
  /// Number of bl instructions in the block targeting this callee.
  unsigned Count = 0;
};

/// Model parameters of one basic block (Figure 3).
struct BlockParams {
  std::string Name; ///< "function:label" for reports
  unsigned Sb = 0;  ///< bytes, incl. the block's own literal-pool words
  double Cb = 0.0;  ///< expected cycles per execution
  double Fb = 0.0;  ///< absolute execution frequency
  unsigned Kb = 0;  ///< instrumentation bytes (terminator rewrite)
  double Tb = 0.0;  ///< instrumentation cycles (expected, terminator)
  /// Net extra cycles per execution when homed in RAM: RAM-port
  /// contention stalls minus the flash wait states the block no longer
  /// pays. Negative on wait-stated devices, where RAM is strictly faster.
  double Lb = 0.0;
  /// Instruction count and instrumentation instruction delta: the
  /// Steinke-style cost metric for the cycles-vs-instructions ablation
  /// (Section 4 argues cycles are the right metric on the M3).
  double Ib = 0.0;
  double TbInstr = 0.0;
  /// Intra-function successors, as global block indices.
  std::vector<unsigned> Succs;
  /// Call-site groups within this block.
  std::vector<CallSite> Calls;
  TermKind Term = TermKind::Return;
  /// False when the block must stay in flash (library code, or an entry
  /// reachable from library code).
  bool Movable = true;
};

/// Whole-module model input.
struct ModelParams {
  std::vector<BlockParams> Blocks;
  /// Global index of the first block of each function.
  std::vector<unsigned> FuncOffset;
  /// Energy coefficients (mW per cycle; Section 4.1 Eflash/Eram).
  double EFlash = 15.0;
  double ERam = 9.0;
  double ClockHz = 24e6;
  /// Cross-memory call rewriting costs (the Figure 4 call row).
  double CallInstrCycles = 1.0;
  unsigned CallInstrBytes = 0;
  unsigned CallInstrPoolBytes = 4;

  unsigned numBlocks() const {
    return static_cast<unsigned>(Blocks.size());
  }
  unsigned globalIndex(unsigned Func, unsigned Block) const {
    return FuncOffset[Func] + Block;
  }
};

/// Extraction knobs.
struct ExtractOptions {
  TimingModel Timing;
  /// Count the 4-byte literal-pool word each rewritten branch needs in Kb
  /// (the paper's Figure 4 counts only instruction bytes; the pool word is
  /// real RAM, so we default to counting it).
  bool CountLiteralPoolInKb = true;
  /// The paper's future-work mode (Section 8): run the optimization "in
  /// the linker" with full visibility of library code, allowing library
  /// blocks to move to RAM as well. Requires the library code to honour
  /// the scratch-register contract (r7 free at block boundaries), which
  /// the bundled soft-float routines do.
  bool TreatLibraryAsMovable = false;
};

/// Extracts model parameters for \p M given block frequencies \p Freq
/// (static estimate or profile) and the power table \p Power.
ModelParams extractParams(const Module &M, const ModuleFrequency &Freq,
                          const PowerModel &Power,
                          const ExtractOptions &Opts = {});

} // namespace ramloc

#endif // RAMLOC_CORE_BLOCKPARAMS_H
