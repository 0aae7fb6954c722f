//===- tests/JsonTest.cpp - JSON writer and parser ----------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>

using namespace ramloc;

namespace {

/// The printf/strtod spelling jsonNumber had before it moved to
/// std::to_chars: the oracle its bytes must match. Counts the values
/// whose %.15g form does not read back (the %.17g path) in \p Widened.
std::string printfJsonNumber(double V, size_t &Widened) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  if (V == std::floor(V) && std::fabs(V) < 9.007199254740992e15) {
    std::snprintf(Buf, sizeof(Buf), "%.0f", V);
    return Buf;
  }
  std::snprintf(Buf, sizeof(Buf), "%.15g", V);
  if (std::strtod(Buf, nullptr) != V) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    ++Widened;
  }
  return Buf;
}

/// strtod's verdict on a whole JSON number token: its bits, or nullopt
/// where strtod would not consume all of \p Text.
std::optional<uint64_t> strtodBits(const std::string &Text) {
  char *End = nullptr;
  double V = std::strtod(Text.c_str(), &End);
  if (Text.empty() || End != Text.c_str() + Text.size())
    return std::nullopt;
  return std::bit_cast<uint64_t>(V);
}

/// JsonValue::parse's verdict on \p Text, in strtodBits' terms.
std::optional<uint64_t> parsedBits(const std::string &Text) {
  JsonValue V;
  if (!JsonValue::parse(Text, V))
    return std::nullopt;
  EXPECT_EQ(V.kind(), JsonValue::Kind::Number) << Text;
  return std::bit_cast<uint64_t>(V.number());
}

} // namespace

TEST(Json, EscapingSpecialCharacters) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(jsonEscape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(jsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(jsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(jsonEscape(std::string("nul\x01" "byte")), "nul\\u0001byte");
  // UTF-8 passes through untouched.
  EXPECT_EQ(jsonEscape("\xC3\xA9"), "\xC3\xA9");
}

TEST(Json, EscapedStringsRoundTrip) {
  const std::string Original = "q\"b\\c\tn\nr\rf\fb\b\x01end";
  JsonWriter W(false);
  W.value(Original);
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(W.str(), V, &Error)) << Error;
  ASSERT_EQ(V.kind(), JsonValue::Kind::String);
  EXPECT_EQ(V.string(), Original);
}

TEST(Json, NumbersRoundTripExactly) {
  for (double Value :
       {0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e-17, 6.02214076e23, -2.5e-308,
        3.141592653589793, 9007199254740992.0, -123456.789}) {
    std::string Text = jsonNumber(Value);
    JsonValue V;
    ASSERT_TRUE(JsonValue::parse(Text, V)) << Text;
    ASSERT_EQ(V.kind(), JsonValue::Kind::Number);
    EXPECT_EQ(V.number(), Value) << Text;
  }
}

TEST(Json, IntegralDoublesPrintWithoutFraction) {
  EXPECT_EQ(jsonNumber(512.0), "512");
  EXPECT_EQ(jsonNumber(-3.0), "-3");
  EXPECT_EQ(jsonNumber(0.0), "0");
}

TEST(Json, NonFiniteBecomesNull) {
  EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(jsonNumber(std::nan("")), "null");
}

TEST(Json, NestedObjectsAndArrays) {
  JsonWriter W;
  W.beginObject();
  W.field("name", "campaign");
  W.key("axes").beginArray();
  W.beginObject().field("rspare", 512u).endObject();
  W.beginObject().field("xlimit", 1.5).endObject();
  W.endArray();
  W.key("empty_obj").beginObject().endObject();
  W.key("empty_arr").beginArray().endArray();
  W.field("ok", true);
  W.key("missing").null();
  W.endObject();

  JsonValue V;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(W.str(), V, &Error)) << Error;
  ASSERT_EQ(V.kind(), JsonValue::Kind::Object);
  EXPECT_EQ(V.find("name")->string(), "campaign");
  const JsonValue *Axes = V.find("axes");
  ASSERT_NE(Axes, nullptr);
  ASSERT_EQ(Axes->items().size(), 2u);
  EXPECT_EQ(Axes->items()[0].find("rspare")->number(), 512.0);
  EXPECT_EQ(Axes->items()[1].find("xlimit")->number(), 1.5);
  EXPECT_TRUE(V.find("empty_obj")->members().empty());
  EXPECT_TRUE(V.find("empty_arr")->items().empty());
  EXPECT_TRUE(V.find("ok")->boolean());
  EXPECT_TRUE(V.find("missing")->isNull());
  EXPECT_EQ(V.find("no_such_key"), nullptr);
}

TEST(Json, CompactAndPrettyParseTheSame) {
  auto build = [](bool Pretty) {
    JsonWriter W(Pretty);
    W.beginObject();
    W.field("a", 1);
    W.key("b").beginArray().value(2).value(3).endArray();
    W.endObject();
    return W.str();
  };
  std::string Compact = build(false);
  std::string Pretty = build(true);
  EXPECT_EQ(Compact, "{\"a\":1,\"b\":[2,3]}");
  EXPECT_NE(Compact, Pretty);
  JsonValue VC, VP;
  ASSERT_TRUE(JsonValue::parse(Compact, VC));
  ASSERT_TRUE(JsonValue::parse(Pretty, VP));
  EXPECT_EQ(VP.find("a")->number(), VC.find("a")->number());
  EXPECT_EQ(VP.find("b")->items().size(), VC.find("b")->items().size());
}

TEST(Json, WriterIsDeterministic) {
  auto build = [] {
    JsonWriter W;
    W.beginObject();
    W.field("x", 1.0 / 3.0);
    W.endObject();
    return W.str();
  };
  EXPECT_EQ(build(), build());
}

TEST(Json, ParserRejectsMalformedInput) {
  JsonValue V;
  std::string Error;
  EXPECT_FALSE(JsonValue::parse("", V, &Error));
  EXPECT_FALSE(JsonValue::parse("{", V, &Error));
  EXPECT_FALSE(JsonValue::parse("{\"a\":}", V, &Error));
  EXPECT_FALSE(JsonValue::parse("[1,]", V, &Error));
  EXPECT_FALSE(JsonValue::parse("\"unterminated", V, &Error));
  EXPECT_FALSE(JsonValue::parse("1.2.3", V, &Error));
  EXPECT_FALSE(JsonValue::parse("tru", V, &Error));
  EXPECT_FALSE(JsonValue::parse("{} trailing", V, &Error));
  EXPECT_FALSE(Error.empty());
}

TEST(Json, ParserHandlesUnicodeEscapes) {
  JsonValue V;
  ASSERT_TRUE(JsonValue::parse("\"\\u0041\\u00e9\\u20ac\"", V));
  EXPECT_EQ(V.string(), "A\xC3\xA9\xE2\x82\xAC"); // A, e-acute, euro
}

TEST(Json, ParseAcceptsWhitespaceEverywhere) {
  JsonValue V;
  ASSERT_TRUE(
      JsonValue::parse("  { \"a\" : [ 1 , 2 ] , \"b\" : null }  ", V));
  EXPECT_EQ(V.find("a")->items().size(), 2u);
}

TEST(Json, NumberBytesMatchThePrintfOracle) {
  SplitMix64 Rng(0x6a736f6e);
  size_t Checked = 0, Widened = 0, Mismatches = 0;
  auto check = [&](double V) {
    std::string Want = printfJsonNumber(V, Widened);
    std::string Got = jsonNumber(V);
    if (Got != Want && ++Mismatches <= 5)
      ADD_FAILURE() << std::hexfloat << V << ": got " << Got << ", want "
                    << Want;
    ++Checked;
  };
  // Random bit patterns: every exponent, NaNs and infinities included.
  for (int I = 0; I != 400000; ++I)
    check(std::bit_cast<double>(Rng.next()));
  // Integers either side of 2^53, where the %.0f form stops.
  for (int64_t K = -50000; K != 50000; ++K)
    for (double Sign : {1.0, -1.0})
      check(Sign * (9007199254740992.0 + static_cast<double>(K)));
  // Decimal fractions k/10^d, the shape of the report's knobs and ratios.
  for (int I = 0; I != 300000; ++I)
    check(static_cast<double>(Rng.nextInRange(-2000000000, 2000000000)) /
          std::pow(10.0, static_cast<double>(Rng.nextBelow(23))));
  // Subnormals and the extremes.
  for (int I = 0; I != 100000; ++I)
    check(std::bit_cast<double>((Rng.next() & 0x800fffffffffffffULL)));
  for (double V : {0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
                   std::numeric_limits<double>::denorm_min(),
                   -std::numeric_limits<double>::denorm_min(), DBL_EPSILON})
    check(V);
  // Neighbours of short decimals: %.15g does not read these back, so
  // they take the %.17g path.
  for (int I = 0; I != 200000; ++I) {
    double V = static_cast<double>(Rng.nextInRange(1, 999999999)) /
               std::pow(10.0, static_cast<double>(Rng.nextBelow(12)));
    check(std::nextafter(V, Rng.nextBool() ? 1e300 : -1e300));
  }
  EXPECT_EQ(Mismatches, 0u);
  EXPECT_GE(Checked, 1000000u);
  EXPECT_GE(Widened, 100000u);
}

TEST(Json, AppendJsonNumberAppends) {
  std::string Out = "x=";
  appendJsonNumber(Out, 0.1);
  appendJsonNumber(Out, 512.0);
  EXPECT_EQ(Out, "x=0.1512");
}

TEST(Json, ParserReadsNumbersAsStrtodDoes) {
  // Overflow and underflow (where from_chars leaves the value unset),
  // signed zero, forms strtod takes that JSON would not, broken tokens.
  std::vector<std::string> Table = {
      "1e999", "-1e999", "1e-400", "-1e-400", "-0", "01", "1.", ".5",
      "1e", "1e+", "--1", "1e5.5", "-", "+1", "+-1", "-+1", "1e-310",
      "2e-324", "3e-324", "4.9e-324", "1.7976931348623157e308",
      "1.7976931348623159e308", "2.2250738585072011e-308", "0.1",
      "-1.5E+3", "1.e5", ".e5", "e5", "1-2", "0.30000000000000004"};
  std::string Long = "1.";
  for (int I = 0; I != 400; ++I)
    Long += static_cast<char>('0' + (I * 7 + 3) % 10);
  Table.push_back(Long);
  Table.push_back(std::string(400, '9'));
  for (const std::string &Text : Table)
    EXPECT_EQ(parsedBits(Text), strtodBits(Text)) << Text;

  // Every short string over the number alphabet: the same accept/reject
  // verdict and the same bits.
  const char Alphabet[] = "0159.eE+-";
  SplitMix64 Rng(0x737472);
  for (int I = 0; I != 100000; ++I) {
    std::string Text;
    for (uint64_t N = 1 + Rng.nextBelow(8); N != 0; --N)
      Text += Alphabet[Rng.nextBelow(sizeof(Alphabet) - 1)];
    ASSERT_EQ(parsedBits(Text), strtodBits(Text)) << Text;
  }
}
