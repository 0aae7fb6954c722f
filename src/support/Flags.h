//===- support/Flags.h - table-driven command-line flags --------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One table per tool: each row names a flag, documents it and binds it to
/// a typed setter. The same rows drive parsing and the --help text, so a
/// flag cannot be parsed without being documented.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_SUPPORT_FLAGS_H
#define RAMLOC_SUPPORT_FLAGS_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace ramloc {

/// Applies a flag's value. Returns false when the value is malformed; may
/// set \p Why to say which part is wrong.
using FlagSetter =
    std::function<bool(const std::string &Value, std::string &Why)>;

/// Strict value parsers: the whole token must parse, so a typo fails
/// instead of silently running something the user never asked for.
/// Integers are plain decimal digits without sign or leading zero (no
/// octal or hex guessing, no wrap-around of negative numbers).
bool parseUnsigned(const std::string &S, unsigned &Out);
bool parseUInt64(const std::string &S, uint64_t &Out);
/// A finite decimal number; nan, inf and out-of-range values fail.
bool parseFiniteDouble(const std::string &S, double &Out);
/// Any non-empty string (a file or directory path).
bool parsePath(const std::string &S, std::string &Out);

/// A setter storing \p Parse's result in \p Out.
template <typename T, typename ParseFn>
FlagSetter bindValue(T &Out, ParseFn Parse) {
  return [&Out, Parse](const std::string &Value, std::string &) {
    return Parse(Value, Out);
  };
}

/// A setter for a comma list: every item must be non-empty and parse; the
/// list replaces \p Out (so the last occurrence of the flag wins).
template <typename T, typename ParseFn>
FlagSetter bindList(std::vector<T> &Out, ParseFn Parse) {
  return [&Out, Parse](const std::string &Value, std::string &Why) {
    std::vector<T> Items;
    for (size_t Start = 0, Comma = 0; Comma != std::string::npos;
         Start = Comma + 1) {
      Comma = Value.find(',', Start);
      std::string Item = Value.substr(Start, Comma - Start);
      T V{};
      if (!Parse(Item, V)) {
        if (Item != Value)
          Why = "bad item '" + Item + "'";
        return false;
      }
      Items.push_back(std::move(V));
    }
    Out = std::move(Items);
    return true;
  };
}

/// One row: `--Name` (a switch, empty Metavar) or `--Name=Metavar`.
struct Flag {
  std::string Name;
  std::string Metavar;
  std::string Help;
  std::string Section;
  FlagSetter Set;
};

/// The flags of one tool, in --help order.
class FlagTable {
public:
  /// \p Usage opens the --help text (synopsis lines, each ending in '\n').
  explicit FlagTable(std::string Usage) : Usage(std::move(Usage)) {}

  /// Lists the flags added after this call under \p Heading.
  void section(std::string Heading) { CurrentSection = std::move(Heading); }
  /// Adds `--Name=Metavar`.
  void add(std::string Name, std::string Metavar, std::string Help,
           FlagSetter Set);
  /// Adds the switch `--Name`, which sets \p Out.
  void add(std::string Name, std::string Help, bool &Out);

  /// Applies every flag in \p Argv[1..] in order and collects the other
  /// arguments into \p Positional. On an unknown flag, a missing or
  /// unexpected value, or a value its setter rejects, stops and returns
  /// false with \p Error set.
  bool parse(int Argc, const char *const *Argv,
             std::vector<std::string> &Positional, std::string &Error) const;

  /// The usage text followed by every flag, grouped by section.
  std::string help() const;

  const std::vector<Flag> &flags() const { return Flags; }

private:
  std::string Usage;
  std::string CurrentSection;
  std::vector<Flag> Flags;
};

} // namespace ramloc

#endif // RAMLOC_SUPPORT_FLAGS_H
