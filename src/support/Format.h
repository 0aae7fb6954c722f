//===- support/Format.h - printf-style string formatting -------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small printf-style formatting helpers used throughout the project in
/// place of iostreams (which are avoided in library code).
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_SUPPORT_FORMAT_H
#define RAMLOC_SUPPORT_FORMAT_H

#include <charconv>
#include <cstdarg>
#include <cstdint>
#include <string>

namespace ramloc {

/// Formats \p Fmt with printf semantics into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// va_list variant of formatString.
std::string formatStringV(const char *Fmt, va_list Args);

/// Renders \p Value with \p Decimals fraction digits, e.g. 3.14159 -> "3.14".
std::string formatDouble(double Value, int Decimals = 2);

/// Renders a ratio change as a signed percentage string, e.g. 0.922 -> "-7.8%".
/// \p NewOverOld is the ratio new/old.
std::string formatPercentChange(double NewOverOld, int Decimals = 1);

/// Appends integer \p V in decimal to \p Out: the bytes %u, %d, %llu or
/// %lld print, without a printf call or a temporary string.
template <typename Int> void appendDecimal(std::string &Out, Int V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// Appends \p V as lowercase hex zero-padded to \p Width digits, the
/// bytes %0<Width>llx prints.
inline void appendHex(std::string &Out, uint64_t V, unsigned Width) {
  char Buf[16];
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), V, 16).ptr;
  size_t Digits = static_cast<size_t>(End - Buf);
  if (Width > Digits)
    Out.append(Width - Digits, '0');
  Out.append(Buf, End);
}

/// Left/right pads \p Text with spaces to \p Width columns.
std::string padLeft(const std::string &Text, unsigned Width);
std::string padRight(const std::string &Text, unsigned Width);

} // namespace ramloc

#endif // RAMLOC_SUPPORT_FORMAT_H
