//===- sim/Predecode.cpp - pre-resolved interpreter operands -------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/Predecode.h"

#include "support/Trace.h"

#include <algorithm>

using namespace ramloc;

DecodedImage ramloc::predecodeImage(const Image &Img) {
  TraceSpan Span("predecode", "sim");
  DecodedImage Dec;
  Dec.reserve(Img.Instrs.size());
  for (const PlacedInstr &P : Img.Instrs) {
    DecodedInstr D;
    std::copy(std::begin(P.I.Regs), std::end(P.I.Regs), D.Regs);
    D.Imm = P.I.Imm;
    D.NextAddr = P.Addr + P.Size;
    D.TargetAddr = P.TargetAddr;
    D.NextIdx = decodedIndexAt(Img, D.NextAddr);
    D.TargetIdx = decodedIndexAt(Img, D.TargetAddr);
    D.Kind = P.I.Kind;
    D.CondCode = P.I.CondCode;
    D.SetsFlags = P.I.SetsFlags;
    D.CheckCond = P.I.CondCode != Cond::AL && P.I.Kind != OpKind::BCond;
    Dec.push_back(D);
  }
  return Dec;
}
