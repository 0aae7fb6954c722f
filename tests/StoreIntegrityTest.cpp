//===- tests/StoreIntegrityTest.cpp - checksummed store end to end -----------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The store-integrity contract: CRC32C record framing (a flipped bit
/// anywhere in any store file is never served), quarantine of damaged
/// lines, cross-process rewrite locking, orphaned-temporary sweeping,
/// fsck detection and self-repair, read-side fault injection, and a
/// multi-writer storm under injected faults that must lose no durable
/// record. The process-level SIGKILL variant of the storm lives in CI;
/// here the same machinery is driven in-process for determinism.
///
//===----------------------------------------------------------------------===//

#include "campaign/CacheStore.h"
#include "campaign/Campaign.h"
#include "campaign/Report.h"
#include "support/Checksum.h"
#include "support/FaultInjector.h"
#include "support/FileLock.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace ramloc;

namespace {

/// A fresh, empty directory under the test temp root.
std::string freshDir(const std::string &Name) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "ramloc-integrity" /
      Name;
  std::filesystem::remove_all(Dir);
  return Dir.string();
}

std::string slurp(const std::string &Path) {
  std::string Out;
  EXPECT_TRUE(readTextFile(Path, Out));
  return Out;
}

/// Two cheap Measure jobs, the same grid throughout the file.
GridSpec tinyGrid() {
  GridSpec Grid;
  Grid.Benchmarks = {"crc32"};
  Grid.Levels = {OptLevel::O1};
  Grid.Repeat = 2;
  Grid.RsparePoints = {256, 512};
  return Grid;
}

/// A hand-built successful result: enough fields for the report dialect
/// to round-trip without running a pipeline.
JobResult makeResult(unsigned Rspare) {
  JobResult R;
  R.Spec.Benchmark = "crc32";
  R.Spec.RspareBytes = Rspare;
  R.Spec.Kind = JobKind::ModelOnly;
  R.PredictedBaseEnergyMilliJoules = 2.0;
  R.PredictedOptEnergyMilliJoules = 1.0 + Rspare * 1e-6;
  R.PredictedBaseCycles = 1000;
  R.PredictedOptCycles = 900;
  R.RamBytes = Rspare / 2;
  R.MovedBlocks = 3;
  return R;
}

/// Uninstalls whatever injector a test left behind, so suites stay
/// independent even when an assertion fails mid-test.
struct FaultTestGuard : ::testing::Test {
  ~FaultTestGuard() override { FaultInjector::uninstall(); }
};

/// A cache directory pre-seeded with two results via save(), plus the
/// untouched on-disk bytes for tamper-and-restore loops.
struct SeededStore {
  std::string Dir;
  std::string ResultsDoc;
};

SeededStore seedResults(const std::string &Name) {
  SeededStore S;
  S.Dir = freshDir(Name);
  CacheStore Store;
  EXPECT_TRUE(Store.open(S.Dir));
  Store.cache().insert(makeResult(256).Spec.cacheKey(), makeResult(256));
  Store.cache().insert(makeResult(512).Spec.cacheKey(), makeResult(512));
  EXPECT_TRUE(Store.save());
  S.ResultsDoc = slurp(Store.path());
  return S;
}

std::string storeFile(const std::string &Dir, const char *Name) {
  return (std::filesystem::path(Dir) / Name).string();
}

} // namespace

//===----------------------------------------------------------------------===//
// CRC32C and the framed-line layout
//===----------------------------------------------------------------------===//

TEST(Checksum, Crc32cMatchesTheStandardVectors) {
  // The iSCSI/ext4/LevelDB polynomial's canonical check value.
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(crc32c(""), 0u);
  // Incremental == one-shot.
  EXPECT_EQ(crc32c("6789", crc32c("12345")), crc32c("123456789"));
  // A single flipped bit anywhere changes the sum.
  EXPECT_NE(crc32c("123456788"), crc32c("123456789"));
}

TEST(Checksum, FrameRoundTripsAndRejectsDamage) {
  std::string Payload = "{\"k\":\"v\",\"n\":1.5}";
  std::string Line = frameRecord(Payload);
  ASSERT_EQ(Line.size(), Payload.size() + 9);
  EXPECT_EQ(Line[8], ' ');

  std::string_view Out;
  ASSERT_TRUE(unframeRecord(Line, Out));
  EXPECT_EQ(Out, Payload);

  // Too short, malformed prefix, uppercase hex, payload tamper, prefix
  // tamper: every shape of damage is rejected.
  EXPECT_FALSE(unframeRecord("", Out));
  EXPECT_FALSE(unframeRecord("0123456", Out));
  EXPECT_FALSE(unframeRecord("xyzzyxyz " + Payload, Out));
  std::string Upper = Line;
  for (int I = 0; I != 8; ++I)
    Upper[I] = static_cast<char>(std::toupper(Upper[I]));
  if (Upper != Line) { // all-digit checksums have no case to flip
    EXPECT_FALSE(unframeRecord(Upper, Out));
  }
  std::string TornPayload = Line.substr(0, Line.size() - 1);
  EXPECT_FALSE(unframeRecord(TornPayload, Out));
  std::string Fused = Line + Line;
  EXPECT_FALSE(unframeRecord(Fused, Out));
}

TEST(Checksum, EveryBitFlipInAFramedLineIsCaught) {
  std::string Line = frameRecord("{\"group\":\"g\",\"energy_mj\":1.25}");
  std::string_view Out;
  ASSERT_TRUE(unframeRecord(Line, Out));
  for (size_t Byte = 0; Byte != Line.size(); ++Byte)
    for (int Bit = 0; Bit != 8; ++Bit) {
      std::string Flipped = Line;
      Flipped[Byte] = static_cast<char>(Flipped[Byte] ^ (1 << Bit));
      EXPECT_FALSE(unframeRecord(Flipped, Out))
          << "byte " << Byte << " bit " << Bit << " slipped through";
    }
}

//===----------------------------------------------------------------------===//
// Flipped bits are never served — any file, any line
//===----------------------------------------------------------------------===//

TEST(StoreIntegrity, FlippedResultBitsAreQuarantinedNotServed) {
  SeededStore S = seedResults("flip-results");
  std::string Path = storeFile(S.Dir, "results.jsonl");

  // Flip single bits across the final record line — prefix, separator,
  // and payload positions — and prove the damaged record never loads.
  size_t LastStart = S.ResultsDoc.rfind('\n', S.ResultsDoc.size() - 2) + 1;
  size_t LastLen = S.ResultsDoc.size() - LastStart - 1; // sans newline
  for (size_t Byte : {size_t(0), size_t(4), size_t(8), size_t(9),
                      LastLen / 2, LastLen - 1}) {
    for (int Bit : {0, 3, 7}) {
      std::string Doc = S.ResultsDoc;
      Doc[LastStart + Byte] =
          static_cast<char>(Doc[LastStart + Byte] ^ (1 << Bit));
      if (Doc == S.ResultsDoc)
        continue;
      ASSERT_TRUE(writeTextFile(Path, Doc));
      CacheStore Store;
      ASSERT_TRUE(Store.open(S.Dir));
      EXPECT_EQ(Store.loadedEntries(), 1u)
          << "byte " << Byte << " bit " << Bit;
      EXPECT_EQ(Store.skippedLines(), 1u);
      EXPECT_EQ(Store.crcMismatches(), 1u);
      EXPECT_FALSE(Store.invalidated());
    }
  }

  // The damaged line was preserved: the quarantine holds tampered bytes
  // verbatim, and the metric counted every catch.
  std::string Q = slurp(Path + ".quarantine");
  EXPECT_FALSE(Q.empty());
  EXPECT_GT(globalMetrics().counterValue("cachestore.crc_mismatch"), 0u);
}

TEST(StoreIntegrity, FlippedProfileBitIsNeverServed) {
  std::string Dir = freshDir("flip-profiles");
  GridSpec Grid = tinyGrid();
  Grid.Kind = JobKind::ModelOnly;
  Grid.FreqModes = {FreqMode::Profiled};
  Grid.RsparePoints = {256}; // one job, one profile record
  {
    CacheStore Store;
    ASSERT_TRUE(Store.open(Dir));
    CampaignOptions Opts;
    Opts.Cache = &Store.cache();
    Opts.Profiles = &Store.profiles();
    runCampaign(Grid, Opts);
    ASSERT_TRUE(Store.save());
  }
  std::string Path = storeFile(Dir, "profiles.jsonl");
  std::string Doc = slurp(Path);
  size_t RecordStart = Doc.find('\n') + 1;
  size_t RecordMid = RecordStart + (Doc.size() - RecordStart) / 2;
  Doc[RecordMid] = static_cast<char>(Doc[RecordMid] ^ 0x01);
  ASSERT_TRUE(writeTextFile(Path, Doc));

  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  EXPECT_EQ(Store.loadedProfiles(), 0u);
  EXPECT_EQ(Store.skippedProfileLines(), 1u);
  EXPECT_EQ(Store.crcMismatches(), 1u);
  EXPECT_TRUE(std::filesystem::exists(Path + ".quarantine"));
}

TEST(StoreIntegrity, SwappedResultDigitIsNeverServed) {
  SeededStore S = seedResults("swap-results");
  std::string Path = storeFile(S.Dir, "results.jsonl");
  std::string Doc = S.ResultsDoc;
  // Swap a digit of the final record's RAM bytes: without the CRC this
  // still parses as JSON and would silently serve a *wrong* number — the
  // exact silent corruption the frame exists to stop.
  size_t Pos = Doc.rfind("\"ram_bytes\":");
  ASSERT_NE(Pos, std::string::npos);
  Pos += std::string("\"ram_bytes\":").size();
  ASSERT_TRUE(std::isdigit(static_cast<unsigned char>(Doc[Pos])));
  Doc[Pos] = Doc[Pos] == '3' ? '7' : '3';
  ASSERT_TRUE(writeTextFile(Path, Doc));

  CacheStore Store;
  ASSERT_TRUE(Store.open(S.Dir));
  EXPECT_EQ(Store.loadedEntries(), 1u);
  EXPECT_EQ(Store.skippedLines(), 1u);
  EXPECT_EQ(Store.cache().size(), 1u);
  EXPECT_EQ(Store.crcMismatches(), 1u);
}

TEST(StoreIntegrity, FlippedJournalBitIsNeverReplayed) {
  std::string Dir = freshDir("flip-journal");
  std::string Error;
  {
    CacheStore Store;
    ASSERT_TRUE(Store.open(Dir));
    ASSERT_TRUE(Store.beginJournal("cfg", /*Resume=*/false, &Error))
        << Error;
    ASSERT_TRUE(Store.appendJournal(makeResult(256), &Error)) << Error;
    ASSERT_TRUE(Store.appendJournal(makeResult(512), &Error)) << Error;
  }
  std::string Path = storeFile(Dir, "progress.jsonl");
  std::string Doc = slurp(Path);
  size_t Second = Doc.find('\n', Doc.find('\n') + 1) + 1; // third line
  size_t Mid = Second + (Doc.size() - Second) / 2;
  Doc[Mid] = static_cast<char>(Doc[Mid] ^ 0x01);
  ASSERT_TRUE(writeTextFile(Path, Doc));

  CacheStore Resumed;
  ASSERT_TRUE(Resumed.open(Dir));
  ASSERT_TRUE(Resumed.beginJournal("cfg", /*Resume=*/true, &Error))
      << Error;
  ASSERT_EQ(Resumed.journalEntries().size(), 1u);
  EXPECT_EQ(Resumed.journalEntries()[0].Spec.RspareBytes, 256u);
  EXPECT_EQ(Resumed.journalSkipped(), 1u);
  EXPECT_EQ(Resumed.crcMismatches(), 1u);
}

//===----------------------------------------------------------------------===//
// Header damage: stale, truncated, bit-flipped — empty store, never a
// crash, never silent reuse
//===----------------------------------------------------------------------===//

namespace {

enum class HeaderTamper { Stale, Truncated, Flipped };

/// Replaces/damages the first line of \p Path per \p Mode. Stale writes
/// a correctly framed header naming another world — CRC-valid, still
/// unusable; the other two damage the frame itself.
void tamperHeader(const std::string &Path, HeaderTamper Mode) {
  std::string Doc;
  ASSERT_TRUE(readTextFile(Path, Doc));
  size_t NL = Doc.find('\n');
  ASSERT_NE(NL, std::string::npos);
  std::string Header = Doc.substr(0, NL);
  std::string Rest = Doc.substr(NL); // keeps the leading newline
  switch (Mode) {
  case HeaderTamper::Stale:
    Header = frameRecord(
        "{\"schema\":\"ramloc-elsewhere-v9\",\"fingerprint\":\"0\"}");
    break;
  case HeaderTamper::Truncated:
    Header = Header.substr(0, Header.size() / 2);
    break;
  case HeaderTamper::Flipped:
    Header[Header.size() / 2] =
        static_cast<char>(Header[Header.size() / 2] ^ 0x04);
    break;
  }
  ASSERT_TRUE(writeTextFile(Path, Header + Rest));
}

} // namespace

TEST(StoreIntegrity, DamagedResultHeadersYieldEmptyUsableStore) {
  for (HeaderTamper Mode : {HeaderTamper::Stale, HeaderTamper::Truncated,
                            HeaderTamper::Flipped}) {
    SeededStore S = seedResults("hdr-results");
    tamperHeader(storeFile(S.Dir, "results.jsonl"), Mode);
    CacheStore Store;
    ASSERT_TRUE(Store.open(S.Dir));
    EXPECT_EQ(Store.loadedEntries(), 0u);
    EXPECT_TRUE(Store.invalidated());
    // Usable: a save() repairs the file and the next load is clean.
    Store.cache().insert(makeResult(768).Spec.cacheKey(), makeResult(768));
    ASSERT_TRUE(Store.save());
    CacheStore After;
    ASSERT_TRUE(After.open(S.Dir));
    EXPECT_EQ(After.loadedEntries(), 1u);
    EXPECT_EQ(After.skippedLines(), 0u);
    EXPECT_FALSE(After.invalidated());
  }
}

TEST(StoreIntegrity, DamagedProfileHeadersYieldEmptyStore) {
  auto profile = [](uint64_t Instructions) {
    auto P = std::make_shared<ExecutionProfile>();
    P->Instructions = Instructions;
    P->Valid = true;
    return P;
  };
  for (HeaderTamper Mode : {HeaderTamper::Stale, HeaderTamper::Truncated,
                            HeaderTamper::Flipped}) {
    std::string Dir = freshDir("hdr-side");
    {
      CacheStore Store;
      ASSERT_TRUE(Store.open(Dir));
      Store.profiles().preload("p1", profile(10));
      ASSERT_TRUE(Store.save());
    }
    tamperHeader(storeFile(Dir, "profiles.jsonl"), Mode);
    CacheStore Store;
    ASSERT_TRUE(Store.open(Dir));
    EXPECT_EQ(Store.loadedProfiles(), 0u);
    EXPECT_TRUE(profileSnapshot(Store.profiles()).empty());
    // Usable: save rewrites the profile file cleanly.
    Store.profiles().preload("p2", profile(20));
    ASSERT_TRUE(Store.save());
    CacheStore After;
    ASSERT_TRUE(After.open(Dir));
    EXPECT_EQ(After.loadedProfiles(), 1u);
    EXPECT_EQ(After.skippedProfileLines(), 0u);
  }
}

TEST(StoreIntegrity, DamagedJournalHeadersReplayNothing) {
  for (HeaderTamper Mode : {HeaderTamper::Stale, HeaderTamper::Truncated,
                            HeaderTamper::Flipped}) {
    std::string Dir = freshDir("hdr-journal");
    std::string Error;
    {
      CacheStore Store;
      ASSERT_TRUE(Store.open(Dir));
      ASSERT_TRUE(Store.beginJournal("cfg", false, &Error)) << Error;
      ASSERT_TRUE(Store.appendJournal(makeResult(256), &Error)) << Error;
    }
    tamperHeader(storeFile(Dir, "progress.jsonl"), Mode);
    CacheStore Resumed;
    ASSERT_TRUE(Resumed.open(Dir));
    ASSERT_TRUE(Resumed.beginJournal("cfg", true, &Error)) << Error;
    EXPECT_EQ(Resumed.journalEntries().size(), 0u);
    // Usable: the header was rewritten fresh, appends and a later
    // resume work.
    ASSERT_TRUE(Resumed.appendJournal(makeResult(512), &Error)) << Error;
    CacheStore Again;
    ASSERT_TRUE(Again.open(Dir));
    ASSERT_TRUE(Again.beginJournal("cfg", true, &Error)) << Error;
    EXPECT_EQ(Again.journalEntries().size(), 1u);
  }
}

//===----------------------------------------------------------------------===//
// Quarantine
//===----------------------------------------------------------------------===//

TEST(StoreIntegrity, QuarantineDeduplicatesAcrossRepeatedLoads) {
  SeededStore S = seedResults("quarantine");
  std::string Path = storeFile(S.Dir, "results.jsonl");
  std::string Doc = S.ResultsDoc;
  size_t Mid = Doc.size() / 2;
  Doc[Mid] = static_cast<char>(Doc[Mid] ^ 0x01);
  ASSERT_TRUE(writeTextFile(Path, Doc));

  for (int Round = 0; Round != 3; ++Round) {
    CacheStore Store;
    ASSERT_TRUE(Store.open(S.Dir));
    EXPECT_EQ(Store.crcMismatches(), 1u);
  }
  // Three loads of the same damage: one quarantined line, not three.
  std::string Q = slurp(Path + ".quarantine");
  EXPECT_EQ(std::count(Q.begin(), Q.end(), '\n'), 1);
  // And the quarantined bytes are the damaged line verbatim.
  size_t LineStart = Doc.rfind('\n', Mid) + 1;
  size_t LineEnd = Doc.find('\n', Mid);
  EXPECT_EQ(Q, Doc.substr(LineStart, LineEnd - LineStart) + "\n");
}

//===----------------------------------------------------------------------===//
// Cross-process locking (flock is per open file description, so two
// FileLock objects in one process exclude each other like processes do)
//===----------------------------------------------------------------------===//

TEST(FileLockTest, ExcludesASecondHolderUntilReleased) {
  std::string Dir = freshDir("lock");
  std::filesystem::create_directories(Dir);
  std::string LockPath = storeFile(Dir, "results.jsonl.lock");

  FileLock A, B;
  ASSERT_TRUE(A.acquire(LockPath, 100));
  EXPECT_TRUE(A.held());
  EXPECT_EQ(A.path(), LockPath);

  std::string Error;
  EXPECT_FALSE(B.acquire(LockPath, 50, &Error));
  EXPECT_NE(Error.find("timed out"), std::string::npos);
  EXPECT_FALSE(B.held());

  A.release();
  EXPECT_FALSE(A.held());
  EXPECT_TRUE(B.acquire(LockPath, 100));
  B.release();

  // The lock file survives release — unlinking it would reintroduce the
  // race it closes.
  EXPECT_TRUE(std::filesystem::exists(LockPath));
}

TEST(FileLockTest, ReacquiringAHeldLockIsAnError) {
  std::string Dir = freshDir("lock-reacquire");
  std::filesystem::create_directories(Dir);
  FileLock A;
  ASSERT_TRUE(A.acquire(storeFile(Dir, "x.lock"), 100));
  std::string Error;
  EXPECT_FALSE(A.acquire(storeFile(Dir, "y.lock"), 100, &Error));
  EXPECT_NE(Error.find("already held"), std::string::npos);
}

TEST_F(FaultTestGuard, InjectedLockContentionTimesOutAndCounts) {
  std::string Dir = freshDir("lock-fault");
  std::filesystem::create_directories(Dir);
  FaultInjector F;
  F.arm("cache.lock", 1.0);
  F.install();

  uint64_t WaitsBefore =
      globalMetrics().counterValue("cachestore.lock_waits");
  FileLock L;
  std::string Error;
  EXPECT_FALSE(L.acquire(storeFile(Dir, "z.lock"), 40, &Error));
  EXPECT_NE(Error.find("timed out"), std::string::npos);
  EXPECT_GT(F.firedCount("cache.lock"), 0u);
  EXPECT_GT(globalMetrics().counterValue("cachestore.lock_waits"),
            WaitsBefore);

  // Clear the fault: the same lock acquires instantly.
  FaultInjector::uninstall();
  EXPECT_TRUE(L.acquire(storeFile(Dir, "z.lock"), 100));
}

TEST(StoreIntegrity, CompactionWaitsOnTheRewriteLock) {
  SeededStore S = seedResults("lock-compact");
  CacheStore Store;
  ASSERT_TRUE(Store.open(S.Dir));
  Store.setLockWaitMs(50);

  FileLock Holder;
  ASSERT_TRUE(
      Holder.acquire(storeFile(S.Dir, "results.jsonl.lock"), 100));
  std::string Error;
  EXPECT_FALSE(Store.compact(&Error));
  EXPECT_NE(Error.find("timed out"), std::string::npos);

  Holder.release();
  EXPECT_TRUE(Store.compact(&Error)) << Error;
}

//===----------------------------------------------------------------------===//
// Orphaned temporaries
//===----------------------------------------------------------------------===//

TEST(StoreIntegrity, OpenSweepsDeadWritersTempsOnly) {
  SeededStore S = seedResults("orphans");

  // A genuinely dead PID: fork a child that exits immediately and reap
  // it, so kill(pid, 0) is guaranteed ESRCH (no recycling race within
  // this test's lifetime).
  pid_t Dead = fork();
  ASSERT_GE(Dead, 0);
  if (Dead == 0)
    _exit(0);
  int Status = 0;
  ASSERT_EQ(waitpid(Dead, &Status, 0), Dead);

  std::string Orphan =
      storeFile(S.Dir, "results.jsonl.tmp.") + std::to_string(Dead);
  std::string Live = storeFile(S.Dir, "profiles.jsonl.tmp.") +
                     std::to_string(::getpid());
  std::string NotATemp = storeFile(S.Dir, "results.jsonl.tmp.abc");
  ASSERT_TRUE(writeTextFile(Orphan, "half-written\n"));
  ASSERT_TRUE(writeTextFile(Live, "in-flight\n"));
  ASSERT_TRUE(writeTextFile(NotATemp, "not ours to judge\n"));

  CacheStore Store;
  ASSERT_TRUE(Store.open(S.Dir));
  ASSERT_EQ(Store.sweptTempFiles().size(), 1u);
  EXPECT_EQ(Store.sweptTempFiles()[0],
            "results.jsonl.tmp." + std::to_string(Dead));
  EXPECT_FALSE(std::filesystem::exists(Orphan));
  EXPECT_TRUE(std::filesystem::exists(Live));     // live writer: untouched
  EXPECT_TRUE(std::filesystem::exists(NotATemp)); // not a PID temp

  // fsck reports the sweep as damage once; a later open is clean.
  CacheStore::FsckReport Report;
  ASSERT_TRUE(Store.fsck(/*Repair=*/false, Report));
  EXPECT_EQ(Report.OrphanedTemps.size(), 1u);
  EXPECT_TRUE(Report.damaged());

  std::filesystem::remove(Live);
  CacheStore Clean;
  ASSERT_TRUE(Clean.open(S.Dir));
  EXPECT_TRUE(Clean.sweptTempFiles().empty());
}

//===----------------------------------------------------------------------===//
// Read-side fault sites
//===----------------------------------------------------------------------===//

TEST_F(FaultTestGuard, InjectedLoadEioReadsAsAbsentStore) {
  SeededStore S = seedResults("load-eio");
  FaultInjector F;
  F.arm("cache.load.eio", 1.0);
  F.install();

  CacheStore Store;
  ASSERT_TRUE(Store.open(S.Dir));
  EXPECT_EQ(Store.loadedEntries(), 0u);
  EXPECT_EQ(Store.skippedLines(), 0u); // unreadable, not corrupt
  EXPECT_FALSE(Store.invalidated());

  // The bytes were never touched: without the fault everything loads.
  FaultInjector::uninstall();
  CacheStore Clean;
  ASSERT_TRUE(Clean.open(S.Dir));
  EXPECT_EQ(Clean.loadedEntries(), 2u);
}

TEST_F(FaultTestGuard, InjectedLoadFlipsAreCaughtByTheCrc) {
  SeededStore S = seedResults("load-flip");
  FaultInjector F;
  F.arm("cache.load.flip", 1.0);
  F.install();

  // Every line read gets one bit flipped in memory; the CRC must catch
  // each one — the header's flip strands the records behind it.
  CacheStore Store;
  ASSERT_TRUE(Store.open(S.Dir));
  EXPECT_EQ(Store.loadedEntries(), 0u);
  EXPECT_GE(Store.crcMismatches(), 1u);
  EXPECT_GT(F.firedCount("cache.load.flip"), 0u);

  FaultInjector::uninstall();
  CacheStore Clean;
  ASSERT_TRUE(Clean.open(S.Dir));
  EXPECT_EQ(Clean.loadedEntries(), 2u); // the file itself is undamaged
}

//===----------------------------------------------------------------------===//
// fsck: detect, repair, converge
//===----------------------------------------------------------------------===//

TEST(StoreIntegrity, FsckReportsCleanStoresAndToleratesDuplicates) {
  // Both records appended again, as a second writer that opened the
  // store before the first one saved would append them.
  SeededStore S = seedResults("fsck-clean");
  std::string Records = S.ResultsDoc.substr(S.ResultsDoc.find('\n'));
  ASSERT_TRUE(writeTextFile(storeFile(S.Dir, "results.jsonl"),
                            S.ResultsDoc + Records));
  CacheStore Store;
  ASSERT_TRUE(Store.open(S.Dir));

  CacheStore::FsckReport Report;
  ASSERT_TRUE(Store.fsck(false, Report));
  ASSERT_EQ(Report.Files.size(), 3u);
  EXPECT_FALSE(Report.damaged());
  const CacheStore::FsckFile &Results = Report.Files[0];
  EXPECT_EQ(Results.Name, "results");
  EXPECT_EQ(Results.Valid, 2u);
  EXPECT_EQ(Results.Duplicate, 2u); // benign: first-wins folds it on load
  EXPECT_FALSE(Results.damaged());
  EXPECT_FALSE(Report.Files[2].Present); // no journal in flight
}

TEST(StoreIntegrity, FsckDetectsRepairsAndConverges) {
  SeededStore S = seedResults("fsck-repair");
  std::string Path = storeFile(S.Dir, "results.jsonl");
  std::string Doc = S.ResultsDoc;
  Doc[Doc.size() / 2] = static_cast<char>(Doc[Doc.size() / 2] ^ 0x01);
  Doc += "never framed at all\n";
  ASSERT_TRUE(writeTextFile(Path, Doc));

  CacheStore Store;
  ASSERT_TRUE(Store.open(S.Dir));
  CacheStore::FsckReport Before;
  ASSERT_TRUE(Store.fsck(/*Repair=*/false, Before));
  EXPECT_TRUE(Before.damaged());
  EXPECT_EQ(Before.Files[0].Corrupt, 2u);
  EXPECT_EQ(Before.Files[0].Valid, 1u);

  std::string Error;
  ASSERT_TRUE(Store.fsck(/*Repair=*/true, Before, &Error)) << Error;

  // Repair converged: a fresh walk is clean, the survivor still loads,
  // and the evidence is in quarantine.
  CacheStore After;
  ASSERT_TRUE(After.open(S.Dir));
  EXPECT_EQ(After.loadedEntries(), 1u);
  EXPECT_EQ(After.skippedLines(), 0u);
  CacheStore::FsckReport Clean;
  ASSERT_TRUE(After.fsck(false, Clean));
  EXPECT_FALSE(Clean.damaged());
  EXPECT_TRUE(std::filesystem::exists(Path + ".quarantine"));
}

TEST(StoreIntegrity, FsckRepairsTheJournalKeepingItsHeaderVerbatim) {
  std::string Dir = freshDir("fsck-journal");
  std::string Error;
  {
    CacheStore Store;
    ASSERT_TRUE(Store.open(Dir));
    ASSERT_TRUE(Store.beginJournal("cfg", false, &Error)) << Error;
    ASSERT_TRUE(Store.appendJournal(makeResult(256), &Error)) << Error;
    ASSERT_TRUE(Store.appendJournal(makeResult(512), &Error)) << Error;
  }
  std::string Path = storeFile(Dir, "progress.jsonl");
  std::string Doc = slurp(Path);
  std::string Header = Doc.substr(0, Doc.find('\n'));
  size_t Second = Doc.find('\n', Doc.find('\n') + 1) + 1;
  size_t Mid = Second + (Doc.size() - Second) / 2;
  Doc[Mid] = static_cast<char>(Doc[Mid] ^ 0x01);
  ASSERT_TRUE(writeTextFile(Path, Doc));

  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  CacheStore::FsckReport Report;
  ASSERT_TRUE(Store.fsck(/*Repair=*/true, Report, &Error)) << Error;
  EXPECT_EQ(Report.Files[2].Corrupt, 1u);
  EXPECT_EQ(Report.Files[2].Valid, 1u);

  // The pinned configuration survived untouched and the valid entry
  // still replays.
  std::string Repaired = slurp(Path);
  EXPECT_EQ(Repaired.substr(0, Repaired.find('\n')), Header);
  CacheStore Resumed;
  ASSERT_TRUE(Resumed.open(Dir));
  ASSERT_TRUE(Resumed.beginJournal("cfg", true, &Error)) << Error;
  ASSERT_EQ(Resumed.journalEntries().size(), 1u);
  EXPECT_EQ(Resumed.journalEntries()[0].Spec.RspareBytes, 256u);
  EXPECT_EQ(Resumed.journalSkipped(), 0u);
}

TEST(StoreIntegrity, FsckRemovesAJournalWithAnUntrustedHeader) {
  std::string Dir = freshDir("fsck-journal-hdr");
  std::string Error;
  {
    CacheStore Store;
    ASSERT_TRUE(Store.open(Dir));
    ASSERT_TRUE(Store.beginJournal("cfg", false, &Error)) << Error;
    ASSERT_TRUE(Store.appendJournal(makeResult(256), &Error)) << Error;
  }
  std::string Path = storeFile(Dir, "progress.jsonl");
  tamperHeader(Path, HeaderTamper::Flipped);

  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  CacheStore::FsckReport Report;
  ASSERT_TRUE(Store.fsck(/*Repair=*/true, Report, &Error)) << Error;
  EXPECT_FALSE(Report.Files[2].HeaderOk);
  EXPECT_FALSE(std::filesystem::exists(Path));
}

//===----------------------------------------------------------------------===//
// Multi-writer storm under injected faults: no durable record is lost
//===----------------------------------------------------------------------===//

TEST_F(FaultTestGuard, WriterStormUnderFaultsLosesNoDurableRecord) {
  std::string Dir = freshDir("storm");
  {
    // Concurrent writers share the store append-only (one O_APPEND
    // write per record); the initial header rewrite is not a concurrent
    // operation, so lay it down before the threads start — exactly what
    // a sharded campaign driver does by opening the store up front.
    CacheStore Seed;
    ASSERT_TRUE(Seed.open(Dir));
    Seed.cache().insert(makeResult(1).Spec.cacheKey(), makeResult(1));
    ASSERT_TRUE(Seed.save());
  }

  // Every write path hurts some of the time: torn appends, EIO on open,
  // failed renames, contended locks. Deterministic seed, so a failure
  // here replays exactly.
  FaultInjector F;
  F.arm("cache.append.short", 0.15, 99);
  F.arm("cache.append.eio", 0.15, 99);
  F.arm("cache.rename", 0.15, 99);
  F.arm("cache.lock", 0.10, 99);
  F.install();

  constexpr unsigned Writers = 4;
  constexpr unsigned Rounds = 10;
  std::mutex Mu;
  std::set<std::string> Durable;

  std::vector<std::thread> Threads;
  for (unsigned W = 0; W != Writers; ++W)
    Threads.emplace_back([&, W] {
      CacheStore Store;
      if (!Store.open(Dir))
        return;
      Store.setLockWaitMs(2000);
      for (unsigned R = 0; R != Rounds; ++R) {
        JobResult Result = makeResult(1000 + W * 100 + R);
        std::string Key = Result.Spec.cacheKey();
        Store.cache().insert(Key, Result);
        // save() returning true is the durability contract: from that
        // moment the record must survive anything short of disk loss.
        if (Store.save()) {
          std::lock_guard<std::mutex> Lock(Mu);
          Durable.insert(Key);
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  FaultInjector::uninstall();

  ASSERT_FALSE(Durable.empty()); // faults must not have starved everyone
  CacheStore Survivor;
  ASSERT_TRUE(Survivor.open(Dir));
  for (const std::string &Key : Durable) {
    JobResult Out;
    EXPECT_TRUE(Survivor.cache().lookup(Key, Out))
        << "durable record lost: " << Key;
  }

  // The wreckage the faults left (torn tails, duplicate re-appends) is
  // damage fsck can see and repair away completely.
  CacheStore::FsckReport Report;
  ASSERT_TRUE(Survivor.fsck(/*Repair=*/true, Report));
  CacheStore Clean;
  ASSERT_TRUE(Clean.open(Dir));
  CacheStore::FsckReport After;
  ASSERT_TRUE(Clean.fsck(false, After));
  EXPECT_FALSE(After.damaged());
  for (const std::string &Key : Durable) {
    JobResult Out;
    EXPECT_TRUE(Clean.cache().lookup(Key, Out));
  }
}
