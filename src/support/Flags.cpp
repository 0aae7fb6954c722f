//===- support/Flags.cpp - table-driven command-line flags ---------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "support/Flags.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

using namespace ramloc;

bool ramloc::parseUInt64(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.find_first_not_of("0123456789") != std::string::npos ||
      (S.size() > 1 && S[0] == '0'))
    return false;
  errno = 0;
  unsigned long long V = std::strtoull(S.c_str(), nullptr, 10);
  if (errno == ERANGE)
    return false;
  Out = V;
  return true;
}

bool ramloc::parseUnsigned(const std::string &S, unsigned &Out) {
  uint64_t V = 0;
  if (!parseUInt64(S, V) || V > UINT32_MAX)
    return false;
  Out = static_cast<unsigned>(V);
  return true;
}

bool ramloc::parseFiniteDouble(const std::string &S, double &Out) {
  // Decimal notation only: strtod would also take hex floats, inf and nan.
  if (S.empty() || S.find_first_not_of("0123456789.eE+-") != std::string::npos)
    return false;
  char *End = nullptr;
  errno = 0;
  double V = std::strtod(S.c_str(), &End);
  if (*End != '\0' || errno == ERANGE || !std::isfinite(V))
    return false;
  Out = V;
  return true;
}

bool ramloc::parsePath(const std::string &S, std::string &Out) {
  if (S.empty())
    return false;
  Out = S;
  return true;
}

void FlagTable::add(std::string Name, std::string Metavar, std::string Help,
                    FlagSetter Set) {
  Flags.push_back({std::move(Name), std::move(Metavar), std::move(Help),
                   CurrentSection, std::move(Set)});
}

void FlagTable::add(std::string Name, std::string Help, bool &Out) {
  add(std::move(Name), "", std::move(Help),
      [&Out](const std::string &, std::string &) { return Out = true; });
}

bool FlagTable::parse(int Argc, const char *const *Argv,
                      std::vector<std::string> &Positional,
                      std::string &Error) const {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.size() < 2 || Arg[0] != '-') {
      Positional.push_back(Arg);
      continue;
    }
    size_t Eq = Arg.find('=');
    std::string Name = Arg.substr(0, Eq);
    const Flag *F = nullptr;
    for (const Flag &Row : Flags)
      if (Name == "--" + Row.Name)
        F = &Row;
    if (!F) {
      Error = "unknown flag '" + Name + "'";
      return false;
    }
    if (F->Metavar.empty() != (Eq == std::string::npos)) {
      Error = F->Metavar.empty() ? Name + " takes no value"
                                 : Name + " needs a value (" + Name + "=" +
                                       F->Metavar + ")";
      return false;
    }
    std::string Value = Eq == std::string::npos ? "" : Arg.substr(Eq + 1);
    std::string Why;
    if (!F->Set(Value, Why)) {
      Error = "bad " + Name + " value '" + Value + "'" +
              (Why.empty() ? "" : ": " + Why);
      return false;
    }
  }
  return true;
}

std::string FlagTable::help() const {
  constexpr size_t HelpColumn = 28, Width = 78;
  std::string Out = Usage;
  const std::string *Section = nullptr;
  for (const Flag &F : Flags) {
    if (!Section || *Section != F.Section) {
      Section = &F.Section;
      Out += "\n" + F.Section + ":\n";
    }
    std::string Line = "  --" + F.Name;
    if (!F.Metavar.empty())
      Line += "=" + F.Metavar;
    // Word-wrap the help text into the right-hand column.
    size_t Start = 0;
    while (Start < F.Help.size()) {
      if (Line.size() + 1 >= HelpColumn) {
        Out += Line + "\n";
        Line.clear();
      }
      Line.resize(HelpColumn, ' ');
      size_t End = F.Help.size();
      if (End - Start > Width - HelpColumn) {
        End = F.Help.rfind(' ', Start + Width - HelpColumn);
        if (End == std::string::npos || End <= Start) // one overlong word
          End = std::min(F.Help.find(' ', Start), F.Help.size());
      }
      Line += F.Help.substr(Start, End - Start);
      Start = End + 1;
    }
    Out += Line + "\n";
  }
  return Out;
}
