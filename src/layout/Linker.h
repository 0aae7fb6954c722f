//===- layout/Linker.h - address assignment and resolution ------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Places code and data per each block's Home memory and resolves all
/// symbols. Layout:
///
///   flash: [.text per function | per-function literal pool] [.rodata]
///          [.data load image]
///   RAM:   [.data] [.bss] [.ramcode per function | RAM literal pool]
///          [... stack grows down from the top]
///
/// The linker *rejects* direct branches or bl calls whose target lives in
/// the other memory: the 0x1800_0000 address gap exceeds their range. This
/// is the invariant that makes the instrumenter's rewriting mandatory, and
/// it doubles as a correctness check in the test suite.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_LAYOUT_LINKER_H
#define RAMLOC_LAYOUT_LINKER_H

#include "layout/Image.h"

#include <string>
#include <vector>

namespace ramloc {

/// Linker configuration.
struct LinkOptions {
  MemoryMap Map;
  /// Bytes reserved for the stack at the top of RAM; code+data placement
  /// overflowing into this reserve is a link error.
  uint32_t StackReserve = 1024;
};

/// Result of linking: the image plus diagnostics (empty Errors == success).
struct LinkResult {
  Image Img;
  std::vector<std::string> Errors;

  bool ok() const { return Errors.empty(); }
};

/// Links \p M into an executable image.
LinkResult linkModule(const Module &M, const LinkOptions &Opts = {});

} // namespace ramloc

#endif // RAMLOC_LAYOUT_LINKER_H
