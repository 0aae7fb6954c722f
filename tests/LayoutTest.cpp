//===- tests/LayoutTest.cpp - linker tests ---------------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "layout/Linker.h"

#include <gtest/gtest.h>

using namespace ramloc;
using namespace ramloc::build;

namespace {

Module simpleModule() {
  Module M;
  M.Name = "m";
  M.EntryFunction = "main";
  M.addRodataWords("tab", {0x11111111, 0x22222222});
  M.addDataWords("var", {0xAABBCCDD});
  M.addBss("buf", 32);
  Function F("main");
  BasicBlock A("entry");
  A.Instrs = {ldrLitSym(R0, "tab"), ldrImm(R1, R0, 4),
              ldrLitSym(R2, "var"), ldrImm(R3, R2, 0), bkpt()};
  F.Blocks.push_back(A);
  M.Functions.push_back(F);
  return M;
}

} // namespace

TEST(MemoryMap, Regions) {
  MemoryMap Map;
  EXPECT_TRUE(Map.inFlash(0x08000000));
  EXPECT_TRUE(Map.inFlash(0x0800FFFF));
  EXPECT_FALSE(Map.inFlash(0x08010000));
  EXPECT_TRUE(Map.inRam(0x20000000));
  EXPECT_TRUE(Map.inRam(0x20001FFF));
  EXPECT_FALSE(Map.inRam(0x20002000));
  EXPECT_EQ(Map.regionOf(0x08000100), MemKind::Flash);
  EXPECT_EQ(Map.regionOf(0x20000100), MemKind::Ram);
  EXPECT_EQ(Map.stackTop(), 0x20002000u);
}

TEST(Linker, BasicPlacement) {
  Module M = simpleModule();
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok()) << LR.Errors.front();
  const Image &Img = LR.Img;

  EXPECT_EQ(Img.EntryAddr, Img.Map.FlashBase);
  ASSERT_EQ(Img.Instrs.size(), 5u);
  EXPECT_EQ(Img.Instrs[0].Addr, Img.Map.FlashBase);
  EXPECT_TRUE(Img.Instrs[0].IsBlockHead);
  EXPECT_FALSE(Img.Instrs[1].IsBlockHead);

  // Data symbols placed: rodata in flash, data/bss in RAM.
  ASSERT_TRUE(Img.SymbolAddr.count("tab"));
  ASSERT_TRUE(Img.SymbolAddr.count("var"));
  ASSERT_TRUE(Img.SymbolAddr.count("buf"));
  EXPECT_TRUE(Img.Map.inFlash(Img.SymbolAddr.at("tab")));
  EXPECT_TRUE(Img.Map.inRam(Img.SymbolAddr.at("var")));
  EXPECT_TRUE(Img.Map.inRam(Img.SymbolAddr.at("buf")));

  // Initial contents visible at the placed addresses.
  EXPECT_EQ(Img.initialWord(Img.SymbolAddr.at("tab")), 0x11111111u);
  EXPECT_EQ(Img.initialWord(Img.SymbolAddr.at("tab") + 4), 0x22222222u);
  EXPECT_EQ(Img.initialWord(Img.SymbolAddr.at("var")), 0xAABBCCDDu);
  EXPECT_EQ(Img.initialWord(Img.SymbolAddr.at("buf")), 0u);

  // Literal pool slots resolved to the symbol addresses.
  EXPECT_EQ(Img.initialWord(Img.Instrs[0].TargetAddr),
            Img.SymbolAddr.at("tab"));
  EXPECT_EQ(Img.initialWord(Img.Instrs[2].TargetAddr),
            Img.SymbolAddr.at("var"));
}

TEST(Linker, InstrIndexLookup) {
  Module M;
  M.EntryFunction = "f";
  Function F("f");
  BasicBlock A("a");
  A.Instrs = {movImm(R8, 1), movImm(R0, 2), bkpt()}; // 4 + 2 + 2 bytes
  F.Blocks.push_back(A);
  M.Functions.push_back(F);
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok());
  const Image &Img = LR.Img;
  for (unsigned I = 0; I != Img.Instrs.size(); ++I)
    EXPECT_EQ(Img.instrIndexAt(Img.Instrs[I].Addr), static_cast<int>(I));
  // The middle halfword of the 32-bit mov is not an instruction start.
  EXPECT_EQ(Img.instrIndexAt(Img.Map.FlashBase + 2), -1);
  // Unmapped address.
  EXPECT_EQ(Img.instrIndexAt(0x30000000), -1);
}

TEST(Linker, RamBlockPlacement) {
  Module M = simpleModule();
  // Move the (single) block to RAM: entry lives in RAM.
  M.Functions[0].Blocks[0].Home = MemKind::Ram;
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok()) << LR.Errors.front();
  EXPECT_TRUE(LR.Img.Map.inRam(LR.Img.EntryAddr));
  EXPECT_GT(LR.Img.Sizes.RamCode, 0u);
  EXPECT_EQ(LR.Img.Sizes.FlashCode, 0u);
  // Its literal pool is in RAM too (co-located with the code).
  EXPECT_TRUE(LR.Img.Map.inRam(LR.Img.Instrs[0].TargetAddr));
  EXPECT_GT(LR.Img.Sizes.RamPool, 0u);
}

TEST(Linker, RejectsCrossMemoryDirectBranch) {
  Module M;
  M.EntryFunction = "f";
  Function F("f");
  BasicBlock A("a");
  A.Instrs = {b("bblock")};
  BasicBlock B2("bblock");
  B2.Home = MemKind::Ram;
  B2.Instrs = {bkpt()};
  F.Blocks = {A, B2};
  M.Functions.push_back(F);
  LinkResult LR = linkModule(M);
  ASSERT_FALSE(LR.ok());
  EXPECT_NE(LR.Errors[0].find("other memory"), std::string::npos);
}

TEST(Linker, RejectsCrossMemoryCall) {
  Module M;
  M.EntryFunction = "f";
  Function F("f");
  BasicBlock A("a");
  A.Instrs = {bl("g"), bkpt()};
  F.Blocks.push_back(A);
  Function G("g");
  BasicBlock GB("entry");
  GB.Home = MemKind::Ram;
  GB.Instrs = {bx(LR)};
  G.Blocks.push_back(GB);
  M.Functions = {F, G};
  LinkResult LR = linkModule(M);
  ASSERT_FALSE(LR.ok());
  EXPECT_NE(LR.Errors[0].find("crosses memories"), std::string::npos);
}

TEST(Linker, RejectsCrossMemoryFallthrough) {
  Module M;
  M.EntryFunction = "f";
  Function F("f");
  BasicBlock A("a");
  A.Instrs = {movImm(R0, 1)}; // falls through
  BasicBlock B2("b");
  B2.Home = MemKind::Ram;
  B2.Instrs = {bkpt()};
  F.Blocks = {A, B2};
  M.Functions.push_back(F);
  LinkResult LR = linkModule(M);
  ASSERT_FALSE(LR.ok());
  EXPECT_NE(LR.Errors[0].find("missing instrumentation"),
            std::string::npos);
}

TEST(Linker, AcceptsLongJumpAcrossMemories) {
  Module M;
  M.EntryFunction = "f";
  Function F("f");
  BasicBlock A("a");
  A.Instrs = {ldrLitSym(PC, "b")};
  BasicBlock B2("b");
  B2.Home = MemKind::Ram;
  B2.Instrs = {bkpt()};
  F.Blocks = {A, B2};
  M.Functions.push_back(F);
  LinkResult LR = linkModule(M);
  EXPECT_TRUE(LR.ok()) << LR.Errors.front();
}

TEST(Linker, UnresolvedSymbolDiagnosed) {
  Module M;
  M.EntryFunction = "f";
  Function F("f");
  BasicBlock A("a");
  A.Instrs = {ldrLitSym(R0, "ghost"), bkpt()};
  F.Blocks.push_back(A);
  M.Functions.push_back(F);
  LinkResult LR = linkModule(M);
  ASSERT_FALSE(LR.ok());
  EXPECT_NE(LR.Errors[0].find("ghost"), std::string::npos);
}

TEST(Linker, RamOverflowDiagnosed) {
  Module M = simpleModule();
  M.addBss("huge", 8 * 1024); // cannot fit with the stack reserve
  LinkResult LR = linkModule(M);
  ASSERT_FALSE(LR.ok());
  EXPECT_NE(LR.Errors[0].find("RAM overflow"), std::string::npos);
}

TEST(Linker, StackReserveRespected) {
  Module M = simpleModule();
  M.addBss("big", 6 * 1024);
  LinkOptions Opts;
  Opts.StackReserve = 2048; // 6K + data + pools + 2K reserve > 8K
  LinkResult LR = linkModule(M, Opts);
  EXPECT_FALSE(LR.ok());
  Opts.StackReserve = 512;
  LR = linkModule(M, Opts);
  EXPECT_TRUE(LR.ok()) << (LR.Errors.empty() ? "" : LR.Errors.front());
}

TEST(Linker, RamCodePastTheEndOfRamIsDiagnosedBeforeMaterializing) {
  // With no stack reserve the budget check is the only guard between RAM
  // code running past the end of RAM and the per-address instruction map
  // sized by the memory map.
  Module M = simpleModule();
  BasicBlock &Entry = M.Functions[0].Blocks[0];
  Entry.Home = MemKind::Ram;
  Entry.Instrs.insert(Entry.Instrs.begin(), 64, movImm(R4, 1));
  LinkOptions Opts;
  Opts.Map.RamSize = 64;
  Opts.StackReserve = 0;
  LinkResult LR = linkModule(M, Opts);
  ASSERT_FALSE(LR.ok());
  EXPECT_NE(LR.Errors[0].find("RAM overflow"), std::string::npos)
      << LR.Errors[0];
  EXPECT_TRUE(LR.Img.RamInstrAt.empty());
}

TEST(Linker, StartupCopyCycles) {
  Module M = simpleModule();
  LinkResult Base = linkModule(M);
  ASSERT_TRUE(Base.ok());
  uint64_t BaseCycles = Base.Img.StartupCopyCycles;
  // Moving code into RAM increases the startup copy.
  M.Functions[0].Blocks[0].Home = MemKind::Ram;
  LinkResult Moved = linkModule(M);
  ASSERT_TRUE(Moved.ok());
  EXPECT_GT(Moved.Img.StartupCopyCycles, BaseCycles);
}

TEST(Linker, LiteralPoolDeduplicated) {
  Module M;
  M.EntryFunction = "f";
  M.addRodataWords("tab", {1});
  Function F("f");
  BasicBlock A("a");
  A.Instrs = {ldrLitSym(R0, "tab"), ldrLitSym(R1, "tab"),
              ldrLitConst(R2, 42), bkpt()};
  F.Blocks.push_back(A);
  M.Functions.push_back(F);
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok());
  // Two distinct literals -> one shared slot for "tab" plus one constant.
  EXPECT_EQ(LR.Img.Instrs[0].TargetAddr, LR.Img.Instrs[1].TargetAddr);
  EXPECT_NE(LR.Img.Instrs[0].TargetAddr, LR.Img.Instrs[2].TargetAddr);
  EXPECT_EQ(LR.Img.Sizes.FlashPool, 8u);
  EXPECT_EQ(LR.Img.initialWord(LR.Img.Instrs[2].TargetAddr), 42u);
}

TEST(Linker, BlockAddressesExported) {
  Module M = simpleModule();
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok());
  EXPECT_TRUE(LR.Img.SymbolAddr.count("main:entry"));
  EXPECT_EQ(LR.Img.SymbolAddr.at("main:entry"), LR.Img.BlockAddr[0][0]);
}

TEST(Linker, SectionSizeAccounting) {
  Module M = simpleModule();
  LinkResult LR = linkModule(M);
  ASSERT_TRUE(LR.ok());
  EXPECT_EQ(LR.Img.Sizes.Rodata, 8u);
  EXPECT_EQ(LR.Img.Sizes.Data, 4u);
  EXPECT_EQ(LR.Img.Sizes.Bss, 32u);
  EXPECT_GT(LR.Img.Sizes.FlashCode, 0u);
  EXPECT_EQ(LR.Img.Sizes.RamCode, 0u);
}
