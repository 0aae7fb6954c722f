//===- core/Instrumenter.h - Figure 4 code transformation -------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Applies a placement to a module: sets each selected block's home to
/// RAM and rewrites every control transfer that crosses the flash/RAM
/// boundary with the Figure 4 sequences:
///
///   unconditional:  b label            ->  ldr pc, =label
///   conditional:    bcc label          ->  ite cc
///                                          ldrcc  r7, =label
///                                          ldr!cc r7, =fallthrough
///                                          bx r7
///   short cond.:    cbz rn, label      ->  cmp rn, #0 ; (as conditional)
///   fall-through:   (nothing)          ->  ldr pc, =next
///   call:           bl f               ->  ldr r7, =f ; blx r7
///
/// r7 is the reserved scratch register (see isa/Register.h). The rewritten
/// module still passes the verifier and, by construction, the linker's
/// cross-memory range checks.
///
/// Because every sequence is fixed, the dynamic counts of a rewritten
/// image follow from its baseline's: deriveOptimizedProfile turns the
/// paper's Fb/Cb/Lb prediction into an exact measurement without running
/// the optimized image.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_CORE_INSTRUMENTER_H
#define RAMLOC_CORE_INSTRUMENTER_H

#include "core/BlockParams.h"
#include "core/IlpModel.h"
#include "layout/Image.h"
#include "mir/Module.h"
#include "sim/ExecutionProfile.h"

#include <string>

namespace ramloc {

/// Statistics of one transformation run.
struct InstrumenterStats {
  unsigned BlocksMoved = 0;
  unsigned BranchesRewritten = 0;
  unsigned FallthroughsRewritten = 0;
  unsigned CallsRewritten = 0;
};

/// Returns a copy of \p M with \p InRam applied (global block numbering
/// per \p MP, which must have been extracted from \p M).
Module applyPlacement(const Module &M, const ModelParams &MP,
                      const Assignment &InRam,
                      InstrumenterStats *Stats = nullptr);

/// Derives into \p Out the profile a full run of \p Opt would record,
/// from \p BaseProfile, the recorded run of \p Base, where \p Opt links
/// a placement of the module \p Base links. The two images are walked
/// block by block and compared instruction by instruction — the rewrite
/// is checked, not trusted. An identical instruction copies its counts
/// (a literal load's data memory follows its pool slot); each Figure 4
/// sequence takes its counts from the transfer it replaces, with
/// E = Exec and T = Taken of that transfer:
///
///   bl f    -> ldr r7,=f: E; blx r7: E
///   b L     -> ldr pc,=L: E
///   bcc L   -> ite cc: T (E-T skipped); ldrcc: T (E-T skipped);
///              ldr!cc: E-T (T skipped); bx r7: E
///   cbz/cbnz   the same, after cmp rn,#0: E (both successors must set
///              the flags before reading them)
///   fall-through ldr pc,=next: Exec + Skipped of the block's last
///              instruction; after a call, its successor's entries minus
///              the direct branches into it (a call may never return)
///
/// Returns false when exactness cannot be proven, naming the reason in
/// \p Why: "no-mark" (an invalid profile, or one without RamLow),
/// "code-read" (ExecutionProfile::ReadsCode), "ram-overlap" (a RAM
/// data/bss symbol moved, or the baseline run touched RAM the optimized
/// image's code now occupies) or "shape" (anything else the walk does
/// not recognize). \p Out is unspecified then.
bool deriveOptimizedProfile(const Image &Base,
                            const ExecutionProfile &BaseProfile,
                            const Image &Opt, ExecutionProfile &Out,
                            std::string *Why = nullptr);

} // namespace ramloc

#endif // RAMLOC_CORE_INSTRUMENTER_H
