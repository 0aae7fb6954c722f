//===- tests/FlagsTest.cpp - flag table tests -----------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "support/Flags.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace ramloc;

namespace {

/// Runs \p T.parse over {"tool", Args...}.
bool parseArgs(const FlagTable &T, std::vector<const char *> Args,
               std::vector<std::string> &Positional, std::string &Error) {
  Args.insert(Args.begin(), "tool");
  return T.parse(static_cast<int>(Args.size()), Args.data(), Positional,
                 Error);
}

} // namespace

TEST(Flags, UnsignedIsPlainDecimal) {
  unsigned V = 7;
  EXPECT_TRUE(parseUnsigned("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUnsigned("4294967295", V));
  EXPECT_EQ(V, 4294967295u);
  for (const char *Bad : {"", "4294967296", "-1", "+1", "010", "0x10", " 1",
                          "1 ", "1e3", "abc"})
    EXPECT_FALSE(parseUnsigned(Bad, V)) << Bad;
}

TEST(Flags, UInt64RejectsNegativesInsteadOfWrapping) {
  uint64_t V = 0;
  EXPECT_TRUE(parseUInt64("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
  for (const char *Bad : {"-1", "-5", "18446744073709551616", "", "07"})
    EXPECT_FALSE(parseUInt64(Bad, V)) << Bad;
}

TEST(Flags, DoubleMustBeFiniteDecimal) {
  double V = 0;
  EXPECT_TRUE(parseFiniteDouble("1.5", V));
  EXPECT_EQ(V, 1.5);
  EXPECT_TRUE(parseFiniteDouble("2", V));
  EXPECT_TRUE(parseFiniteDouble("1e3", V));
  EXPECT_EQ(V, 1000.0);
  EXPECT_TRUE(parseFiniteDouble("-0.25", V));
  EXPECT_EQ(V, -0.25);
  for (const char *Bad : {"nan", "NaN", "inf", "-inf", "1e999", "0x1p3", "abc",
                          "1.5x", "", "."})
    EXPECT_FALSE(parseFiniteDouble(Bad, V)) << Bad;
}

TEST(Flags, PathMustBeNonEmpty) {
  std::string P;
  EXPECT_FALSE(parsePath("", P));
  EXPECT_TRUE(parsePath("out.json", P));
  EXPECT_EQ(P, "out.json");
}

TEST(Flags, ListParsesEveryItemOrNothing) {
  std::vector<unsigned> Out = {1};
  FlagSetter Set = bindList(Out, parseUnsigned);
  std::string Why;
  EXPECT_TRUE(Set("256,512", Why));
  EXPECT_EQ(Out, (std::vector<unsigned>{256, 512}));
  EXPECT_FALSE(Set("128,abc", Why));
  EXPECT_EQ(Why, "bad item 'abc'");
  EXPECT_FALSE(Set("128,,512", Why));
  EXPECT_FALSE(Set("", Why));
  EXPECT_EQ(Out, (std::vector<unsigned>{256, 512})) << "failed sets keep Out";
}

TEST(Flags, RoundTrip) {
  std::vector<unsigned> Rspare = {512};
  std::vector<double> Xlimit = {1.5};
  unsigned Jobs = 0;
  std::string Json;
  bool Quiet = false, Verbose = false;
  FlagTable T("usage: tool [options] FILE...\n");
  T.section("grid");
  T.add("rspare", "LIST", "RAM-spare axis", bindList(Rspare, parseUnsigned));
  T.add("xlimit", "LIST", "time axis", bindList(Xlimit, parseFiniteDouble));
  T.section("run");
  T.add("jobs", "N", "threads", bindValue(Jobs, parseUnsigned));
  T.add("json", "FILE", "report", bindValue(Json, parsePath));
  T.add("quiet", "no summary", Quiet);
  T.add("verbose", "progress", Verbose);

  std::vector<std::string> Files;
  std::string Error;
  ASSERT_TRUE(parseArgs(T,
                        {"--rspare=1", "a.json", "--xlimit=1.1,1.2",
                         "--rspare=256,1024", "--jobs=3", "--quiet",
                         "--json=-", "b.json"},
                        Files, Error))
      << Error;
  EXPECT_EQ(Rspare, (std::vector<unsigned>{256, 1024})) << "last one wins";
  EXPECT_EQ(Xlimit, (std::vector<double>{1.1, 1.2}));
  EXPECT_EQ(Jobs, 3u);
  EXPECT_EQ(Json, "-");
  EXPECT_TRUE(Quiet);
  EXPECT_FALSE(Verbose);
  EXPECT_EQ(Files, (std::vector<std::string>{"a.json", "b.json"}));
}

TEST(Flags, ParseErrorsNameTheFlag) {
  unsigned N = 0;
  bool Quiet = false;
  FlagTable T("usage: tool\n");
  T.section("options");
  T.add("jobs", "N", "threads", bindValue(N, parseUnsigned));
  T.add("quiet", "no summary", Quiet);
  const std::pair<std::vector<const char *>, const char *> Cases[] = {
      {{"--bogus"}, "unknown flag '--bogus'"},
      {{"-j"}, "unknown flag '-j'"},
      {{"--quiet=1"}, "--quiet takes no value"},
      {{"--jobs"}, "--jobs needs a value (--jobs=N)"},
      {{"--jobs=x"}, "bad --jobs value 'x'"},
      {{"--jobs="}, "bad --jobs value ''"},
  };
  for (const auto &[Args, Want] : Cases) {
    std::vector<std::string> Files;
    std::string Error;
    EXPECT_FALSE(parseArgs(T, Args, Files, Error)) << Args[0];
    EXPECT_EQ(Error, Want);
  }
}

// Each value the tools used to accept silently, through the binder the
// tool now uses for it.
TEST(Flags, ToolValuesThatUsedToSlipThrough) {
  std::vector<unsigned> Rspare;
  std::vector<double> Xlimit;
  uint64_t NodeLimit = 0, PivotLimit = 0, MaxProfileBytes = 0, MaxCycles = 0;
  unsigned OptRspare = 0;
  double OptXlimit = 0;
  FlagTable T("usage: tool\n");
  T.section("options");
  T.add("rspare", "LIST", "", bindList(Rspare, parseUnsigned));
  T.add("xlimit", "LIST", "", bindList(Xlimit, parseFiniteDouble));
  T.add("node-limit", "N", "", bindValue(NodeLimit, parseUInt64));
  T.add("pivot-limit", "N", "", bindValue(PivotLimit, parseUInt64));
  T.add("max-profile-bytes", "N", "", bindValue(MaxProfileBytes, parseUInt64));
  T.add("max-cycles", "N", "", bindValue(MaxCycles, parseUInt64));
  T.add("opt-rspare", "N", "", bindValue(OptRspare, parseUnsigned));
  T.add("opt-xlimit", "F", "", bindValue(OptXlimit, parseFiniteDouble));
  for (const char *Arg :
       {"--node-limit=-1", "--pivot-limit=-1", "--max-profile-bytes=-5",
        "--xlimit=nan", "--xlimit=inf", "--xlimit=1e999", "--xlimit=1.2,nan",
        "--rspare=010", "--opt-rspare=abc", "--opt-xlimit=abc",
        "--max-cycles=xyz"}) {
    std::vector<std::string> Files;
    std::string Error;
    EXPECT_FALSE(parseArgs(T, {Arg}, Files, Error)) << Arg;
    EXPECT_EQ(Error.rfind("bad --", 0), 0u) << Error;
  }
}

TEST(Flags, HelpListsEveryRegisteredFlag) {
  std::vector<std::string> Levels;
  std::string Long;
  unsigned Repeat = 0;
  bool ModelOnly = false;
  FlagTable T("usage: tool [options]\n");
  T.section("grid selection");
  T.add("levels", "LIST", "optimisation levels",
        bindList(Levels, parsePath));
  T.add("repeat", "N",
        "kernel iterations per run; 0 keeps each benchmark's suite default",
        bindValue(Repeat, parseUnsigned));
  T.add("model-only",
        "stop at the ILP and skip simulation; with --freq=profiled the "
        "baseline still simulates once per job to collect the profile",
        ModelOnly);
  T.section("reports and diagnostics");
  T.add("a-very-long-flag-name", "METAVAR", "still documented",
        bindValue(Long, parsePath));

  std::string H = T.help();
  EXPECT_EQ(H.rfind("usage: tool [options]\n", 0), 0u);
  EXPECT_NE(H.find("\ngrid selection:\n"), std::string::npos);
  EXPECT_NE(H.find("\nreports and diagnostics:\n"), std::string::npos);
  for (const Flag &F : T.flags()) {
    std::string Spelled = "  --" + F.Name;
    if (!F.Metavar.empty())
      Spelled += "=" + F.Metavar;
    EXPECT_NE(H.find(Spelled), std::string::npos) << F.Name;
  }
  // Wrapping keeps lines short and every word of the help text, in order.
  std::istringstream Lines(H);
  std::string Words;
  for (std::string Line, Word; std::getline(Lines, Line);) {
    EXPECT_LE(Line.size(), 78u) << Line;
    for (std::istringstream In(Line); In >> Word;)
      Words += Word + " ";
  }
  for (const Flag &F : T.flags())
    EXPECT_NE(Words.find(F.Help), std::string::npos) << F.Help;
}
