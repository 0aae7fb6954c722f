//===- sim/Predecode.cpp - pre-resolved interpreter dispatch -------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/Predecode.h"

#include "support/Trace.h"

using namespace ramloc;

DecodedImage ramloc::predecodeImage(const Image &Img) {
  TraceSpan Span("predecode", "sim");
  DecodedImage Dec;
  Dec.reserve(Img.Instrs.size());
  for (const PlacedInstr &P : Img.Instrs) {
    DecodedInstr D;
    D.P = &P;
    D.NextAddr = P.Addr + P.Size;
    D.TargetAddr = P.TargetAddr;
    D.NextIdx = decodedIndexAt(Img, D.NextAddr);
    D.TargetIdx = decodedIndexAt(Img, D.TargetAddr);
    D.Kind = P.I.Kind;
    D.CondCode = P.I.CondCode;
    D.CheckCond = P.I.CondCode != Cond::AL && P.I.Kind != OpKind::BCond;
    D.IsBlockHead = P.IsBlockHead;
    D.FuncIdx = P.FuncIdx;
    D.BlockIdx = P.BlockIdx;
    Dec.push_back(D);
  }
  return Dec;
}
