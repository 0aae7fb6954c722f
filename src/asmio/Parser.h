//===- asmio/Parser.h - textual assembly input ------------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses the project's UAL-like assembly dialect into a Module. The
/// dialect is what asmio/Printer.h emits, and both read each opcode's
/// syntax from its RAMLOC_OPCODES row (isa/OpKind.h):
///
///   .module demo
///   .entry main
///   .rodata table 4 0a0b0c0d
///   .bss scratch 64 4
///   .func main
///   .block entry
///       push {r4, lr}
///       mov r4, #0
///       bl helper
///       pop {r4, pc}
///
/// Errors are collected with line numbers rather than thrown; the result
/// is usable iff ok().
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_ASMIO_PARSER_H
#define RAMLOC_ASMIO_PARSER_H

#include "mir/Module.h"

#include <string>
#include <string_view>
#include <vector>

namespace ramloc {

/// Outcome of parsing: a module plus diagnostics.
struct ParseResult {
  Module M;
  std::vector<std::string> Errors;

  bool ok() const { return Errors.empty(); }
};

/// Parses \p Text into a module. Never asserts on user input.
ParseResult parseAssembly(std::string_view Text);

} // namespace ramloc

#endif // RAMLOC_ASMIO_PARSER_H
