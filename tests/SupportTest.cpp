//===- tests/SupportTest.cpp - support library tests ----------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"
#include "support/Hash.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <gtest/gtest.h>

using namespace ramloc;

TEST(Format, Basic) {
  EXPECT_EQ(formatString("x=%d", 42), "x=42");
  EXPECT_EQ(formatString("%s/%s", "a", "b"), "a/b");
  EXPECT_EQ(formatString("%s", ""), "");
}

TEST(Format, LongStringsAllocate) {
  std::string Long(1000, 'y');
  EXPECT_EQ(formatString("%s", Long.c_str()).size(), 1000u);
}

TEST(Format, Double) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatDouble(-1.0, 0), "-1");
}

TEST(Format, PercentChange) {
  EXPECT_EQ(formatPercentChange(0.9), "-10.0%");
  EXPECT_EQ(formatPercentChange(1.25), "+25.0%");
  EXPECT_EQ(formatPercentChange(1.0), "+0.0%");
}

TEST(Format, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcdef", 4), "abcdef");
}

TEST(Random, Deterministic) {
  SplitMix64 A(123), B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, DifferentSeedsDiffer) {
  SplitMix64 A(1), B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(Random, RangeBounds) {
  SplitMix64 R(7);
  for (int I = 0; I != 1000; ++I) {
    int64_t V = R.nextInRange(-5, 5);
    EXPECT_GE(V, -5);
    EXPECT_LE(V, 5);
  }
}

TEST(Random, DoubleInUnitInterval) {
  SplitMix64 R(9);
  for (int I = 0; I != 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Random, BoolProbability) {
  SplitMix64 R(11);
  int True = 0;
  for (int I = 0; I != 10000; ++I)
    True += R.nextBool(0.25);
  EXPECT_NEAR(True / 10000.0, 0.25, 0.03);
}

TEST(Statistics, Mean) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Statistics, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({4, 1}), 2.0);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Statistics, StdDev) {
  EXPECT_DOUBLE_EQ(sampleStdDev({2, 2, 2}), 0.0);
  EXPECT_NEAR(sampleStdDev({1, 2, 3}), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(sampleStdDev({5}), 0.0);
}

TEST(Statistics, PercentChange) {
  EXPECT_DOUBLE_EQ(percentChange(100, 90), -10.0);
  EXPECT_DOUBLE_EQ(percentChange(50, 75), 50.0);
}

TEST(Table, RendersAlignedColumns) {
  Table T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"longer", "22"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name    value"), std::string::npos);
  EXPECT_NE(Out.find("longer  22"), std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(Table, SeparatorRow) {
  Table T({"h"});
  T.addRow({"x"});
  T.addSeparator();
  T.addRow({"y"});
  std::string Out = T.render();
  // Two rules: one under the header, one mid-table.
  size_t First = Out.find("-\n");
  ASSERT_NE(First, std::string::npos);
  EXPECT_NE(Out.find("-\n", First + 1), std::string::npos);
}

TEST(Table, ShortRowsPadded) {
  Table T({"a", "b", "c"});
  T.addRow({"only"});
  EXPECT_NO_THROW({ std::string S = T.render(); });
}

TEST(Format, AppendDecimalAndHexMatchPrintf) {
  SplitMix64 Rng(7);
  for (int I = 0; I != 10000; ++I) {
    uint64_t V = Rng.next() >> Rng.nextBelow(64);
    std::string Out = "|";
    appendDecimal(Out, V);
    appendDecimal(Out, static_cast<unsigned>(V));
    appendDecimal(Out, -static_cast<int64_t>(V >> 1));
    appendHex(Out, V, 16);
    appendHex(Out, V & 0xffff, 8);
    EXPECT_EQ(Out, formatString("|%llu%u%lld%016llx%08llx",
                                static_cast<unsigned long long>(V),
                                static_cast<unsigned>(V),
                                -static_cast<long long>(V >> 1),
                                static_cast<unsigned long long>(V),
                                static_cast<unsigned long long>(V & 0xffff)));
  }
}

TEST(Hash, ZeroRunFoldEqualsByteFold) {
  for (uint64_t H : {Fnv1aOffset, uint64_t{0x123456789abcdef}})
    for (size_t N : {0, 1, 2, 7, 8, 9, 63, 64, 65, 200, 4096, 65536 + 3})
      EXPECT_EQ(fnv1a64Zeros(H, N), fnv1a64(H, std::string(N, '\0'))) << N;
}

TEST(Hash, SparseFoldEqualsByteFold) {
  SplitMix64 Rng(0xfa57);
  auto nonZero = [&](size_t N) {
    std::string S;
    for (size_t I = 0; I != N; ++I)
      S += static_cast<char>(1 + Rng.nextBelow(255));
    return S;
  };
  auto expectSame = [](const std::string &Buf) {
    for (uint64_t H : {Fnv1aOffset, uint64_t{0x0123456789abcdef}})
      ASSERT_EQ(fnv1a64Sparse(H, Buf), fnv1a64(H, Buf)) << Buf.size();
  };
  expectSame("");
  for (size_t N : {1, 7, 8, 9, 64, 1000})
    expectSame(std::string(N, '\0'));
  // A zero run of every length up to 80, starting at every offset within
  // a word: between data, at the head and at the tail of the buffer.
  for (size_t Off = 0; Off != 8; ++Off)
    for (size_t Len = 0; Len <= 80; ++Len) {
      std::string Zeros(Len, '\0');
      expectSame(nonZero(Off) + Zeros + nonZero(13));
      expectSame(Zeros + nonZero(Off + 1));
      expectSame(nonZero(Off + 1) + Zeros);
    }
  // Mostly-zero buffers like a memory image, with scattered data bytes
  // (some of them zero too).
  for (int I = 0; I != 200; ++I) {
    std::string Buf(1 + Rng.nextBelow(3000), '\0');
    for (uint64_t K = Rng.nextBelow(40); K != 0; --K)
      Buf[Rng.nextBelow(Buf.size())] = static_cast<char>(Rng.next());
    expectSame(Buf);
  }
}
