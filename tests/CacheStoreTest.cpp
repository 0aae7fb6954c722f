//===- tests/CacheStoreTest.cpp - persistent result cache --------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "campaign/CacheStore.h"
#include "campaign/Campaign.h"
#include "campaign/Report.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

using namespace ramloc;

namespace {

/// A fresh, empty directory under the test temp root.
std::string freshDir(const std::string &Name) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "ramloc-cache" / Name;
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

} // namespace

TEST(CacheStore, SecondRunIsServedEntirelyFromDisk) {
  std::string Dir = freshDir("roundtrip");

  CacheStore First;
  ASSERT_TRUE(First.open(Dir));
  EXPECT_EQ(First.loadedEntries(), 0u);
  CampaignOptions Opts;
  Opts.Cache = &First.cache();
  CampaignResult CR1 = runCampaign(tinyGrid(), Opts);
  EXPECT_EQ(CR1.Summary.UniqueRuns, 2u);
  std::string Error;
  ASSERT_TRUE(First.save(&Error)) << Error;

  // A new process: reload from disk, run the same grid, recompute
  // nothing, and emit byte-identical reports.
  CacheStore Second;
  ASSERT_TRUE(Second.open(Dir));
  EXPECT_EQ(Second.loadedEntries(), 2u);
  EXPECT_FALSE(Second.invalidated());
  CampaignOptions Opts2;
  Opts2.Cache = &Second.cache();
  CampaignResult CR2 = runCampaign(tinyGrid(), Opts2);
  EXPECT_EQ(CR2.Summary.UniqueRuns, 0u);
  EXPECT_EQ(CR2.Summary.CacheHits, 2u);
  EXPECT_EQ(campaignToJson(CR1), campaignToJson(CR2));
  EXPECT_EQ(campaignToCsv(CR1), campaignToCsv(CR2));
}

TEST(CacheStore, ModelOnlyResultsPersistToo) {
  std::string Dir = freshDir("modelonly");
  GridSpec Grid = tinyGrid();
  Grid.Kind = JobKind::ModelOnly;

  CacheStore First;
  ASSERT_TRUE(First.open(Dir));
  CampaignOptions Opts;
  Opts.Cache = &First.cache();
  CampaignResult CR1 = runCampaign(Grid, Opts);
  ASSERT_TRUE(First.save());

  CacheStore Second;
  ASSERT_TRUE(Second.open(Dir));
  CampaignOptions Opts2;
  Opts2.Cache = &Second.cache();
  CampaignResult CR2 = runCampaign(Grid, Opts2);
  EXPECT_EQ(CR2.Summary.UniqueRuns, 0u);
  EXPECT_EQ(campaignToJson(CR1), campaignToJson(CR2));
}

TEST(CacheStore, CorruptFileFallsBackToRecompute) {
  std::string Dir = freshDir("corrupt");
  {
    CacheStore Seed;
    ASSERT_TRUE(Seed.open(Dir)); // creates the directory
  }
  // A file that is not JSON at all: the store must shrug, not fail.
  std::filesystem::path File =
      std::filesystem::path(Dir) / "results.jsonl";
  ASSERT_TRUE(writeTextFile(File.string(), "not json at all\x01\x02\n"));

  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  EXPECT_EQ(Store.loadedEntries(), 0u);

  CampaignOptions Opts;
  Opts.Cache = &Store.cache();
  CampaignResult CR = runCampaign(tinyGrid(), Opts);
  EXPECT_EQ(CR.Summary.UniqueRuns, 2u); // everything recomputed
  EXPECT_EQ(CR.Summary.Failed, 0u);
  // And save() repairs the store for the next run.
  ASSERT_TRUE(Store.save());
  CacheStore After;
  ASSERT_TRUE(After.open(Dir));
  EXPECT_EQ(After.loadedEntries(), 2u);
}

TEST(CacheStore, TruncatedTailEntryIsSkipped) {
  std::string Dir = freshDir("truncated");
  CacheStore Seed;
  ASSERT_TRUE(Seed.open(Dir));
  CampaignOptions Opts;
  Opts.Cache = &Seed.cache();
  runCampaign(tinyGrid(), Opts);
  ASSERT_TRUE(Seed.save());

  // Chop the file mid-way through its final entry, as a killed writer
  // of an append-style store would have left it.
  std::string Doc = slurp(Seed.path());
  ASSERT_EQ(Doc.back(), '\n');
  size_t LastLineStart = Doc.rfind('\n', Doc.size() - 2) + 1;
  size_t LastLineLen = Doc.size() - LastLineStart;
  ASSERT_TRUE(writeTextFile(
      Seed.path(), Doc.substr(0, LastLineStart + LastLineLen / 2)));

  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  EXPECT_EQ(Store.loadedEntries(), 1u);
  EXPECT_EQ(Store.skippedLines(), 1u);

  // The missing entry recomputes; the surviving one is served.
  CampaignOptions Opts2;
  Opts2.Cache = &Store.cache();
  CampaignResult CR = runCampaign(tinyGrid(), Opts2);
  EXPECT_EQ(CR.Summary.UniqueRuns, 1u);
  EXPECT_EQ(CR.Summary.CacheHits, 1u);
  EXPECT_EQ(CR.Summary.Failed, 0u);
}

TEST(CacheStore, OutOfRangeNumbersAreSkippedNotFatal) {
  // A parseable line with an unrepresentable integer field must be
  // skipped like any other corruption — not undefined behaviour in the
  // double-to-integer cast (the sanitizer CI job would abort).
  std::string Dir = freshDir("outofrange");
  CacheStore Seed;
  ASSERT_TRUE(Seed.open(Dir));
  CampaignOptions Opts;
  Opts.Cache = &Seed.cache();
  runCampaign(tinyGrid(), Opts);
  ASSERT_TRUE(Seed.save());

  std::string Doc = slurp(Seed.path());
  size_t Pos = Doc.find("\"rspare_bytes\":256");
  ASSERT_NE(Pos, std::string::npos);
  Doc.replace(Pos, 18, "\"rspare_bytes\":-25");
  size_t Cycles = Doc.find("\"cycles\":");
  ASSERT_NE(Cycles, std::string::npos);
  ASSERT_TRUE(writeTextFile(Seed.path(), Doc));

  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  EXPECT_EQ(Store.loadedEntries(), 1u);
  EXPECT_EQ(Store.skippedLines(), 1u);
}

TEST(CacheStore, FingerprintChangeInvalidatesTheStore) {
  std::string Dir = freshDir("fingerprint");
  CacheStore Seed;
  ASSERT_TRUE(Seed.open(Dir));
  CampaignOptions Opts;
  Opts.Cache = &Seed.cache();
  runCampaign(tinyGrid(), Opts);
  ASSERT_TRUE(Seed.save());

  // Simulate a power-model / device-table version bump: same schema,
  // different fingerprint. Every entry must be discarded.
  std::string Doc = slurp(Seed.path());
  size_t Newline = Doc.find('\n');
  ASSERT_NE(Newline, std::string::npos);
  std::string Tampered =
      "{\"schema\":\"ramloc-cache-v1\","
      "\"fingerprint\":\"0000000000000000\"}" +
      Doc.substr(Newline);
  ASSERT_TRUE(writeTextFile(Seed.path(), Tampered));

  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  EXPECT_TRUE(Store.invalidated());
  EXPECT_EQ(Store.loadedEntries(), 0u);

  // An unknown store schema is equally fatal to the old entries.
  std::string BadSchema =
      "{\"schema\":\"ramloc-cache-v999\",\"fingerprint\":\"" +
      CacheStore::fingerprint() + "\"}" + Doc.substr(Newline);
  ASSERT_TRUE(writeTextFile(Seed.path(), BadSchema));
  CacheStore Store2;
  ASSERT_TRUE(Store2.open(Dir));
  EXPECT_TRUE(Store2.invalidated());
  EXPECT_EQ(Store2.loadedEntries(), 0u);
}

TEST(CacheStore, SaveIsAtomicRename) {
  std::string Dir = freshDir("atomic");
  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  CampaignOptions Opts;
  Opts.Cache = &Store.cache();
  runCampaign(tinyGrid(), Opts);
  ASSERT_TRUE(Store.save());
  ASSERT_TRUE(Store.save()); // idempotent rewrite over a live store
  EXPECT_FALSE(std::filesystem::exists(Store.path() + ".tmp"));

  CacheStore Reload;
  ASSERT_TRUE(Reload.open(Dir));
  EXPECT_EQ(Reload.loadedEntries(), 2u);
  EXPECT_EQ(Reload.skippedLines(), 0u);
}

TEST(CacheStore, JobResultRoundTripsExactly) {
  JobSpec Spec;
  Spec.Benchmark = "int_matmult";
  Spec.Level = OptLevel::O2;
  Spec.Repeat = 2;
  Spec.RspareBytes = 1024;
  Spec.Xlimit = 1.25;
  JobResult R = runJob(Spec);
  ASSERT_TRUE(R.ok()) << R.Error;

  JsonWriter W(/*Pretty=*/false);
  writeJobResult(W, R);
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(W.str(), V, &Error)) << Error;
  JobResult Back;
  ASSERT_TRUE(parseJobResult(V, Back, &Error)) << Error;

  EXPECT_EQ(Back.Spec.cacheKey(), Spec.cacheKey());
  EXPECT_EQ(Back.BaseEnergyMilliJoules, R.BaseEnergyMilliJoules);
  EXPECT_EQ(Back.OptEnergyMilliJoules, R.OptEnergyMilliJoules);
  EXPECT_EQ(Back.BaseSeconds, R.BaseSeconds);
  EXPECT_EQ(Back.OptSeconds, R.OptSeconds);
  EXPECT_EQ(Back.BaseAvgMilliWatts, R.BaseAvgMilliWatts);
  EXPECT_EQ(Back.OptAvgMilliWatts, R.OptAvgMilliWatts);
  EXPECT_EQ(Back.BaseCycles, R.BaseCycles);
  EXPECT_EQ(Back.OptCycles, R.OptCycles);
  EXPECT_EQ(Back.PredictedBaseEnergyMilliJoules,
            R.PredictedBaseEnergyMilliJoules);
  EXPECT_EQ(Back.PredictedOptEnergyMilliJoules,
            R.PredictedOptEnergyMilliJoules);
  EXPECT_EQ(Back.PredictedBaseCycles, R.PredictedBaseCycles);
  EXPECT_EQ(Back.PredictedOptCycles, R.PredictedOptCycles);
  EXPECT_EQ(Back.RamBytes, R.RamBytes);
  EXPECT_EQ(Back.MovedBlocks, R.MovedBlocks);

  // Failed jobs round-trip their error.
  JobResult Failed;
  Failed.Spec.Benchmark = "nope";
  Failed.Error = "unknown benchmark 'nope'";
  JsonWriter W2(/*Pretty=*/false);
  writeJobResult(W2, Failed);
  ASSERT_TRUE(JsonValue::parse(W2.str(), V, &Error)) << Error;
  JobResult FailedBack;
  ASSERT_TRUE(parseJobResult(V, FailedBack, &Error)) << Error;
  EXPECT_FALSE(FailedBack.ok());
  EXPECT_EQ(FailedBack.Error, Failed.Error);
}

TEST(CacheStore, FailedResultsAreNotPersisted) {
  std::string Dir = freshDir("failures");
  JobSpec Good;
  Good.Benchmark = "crc32";
  Good.Level = OptLevel::O1;
  Good.Repeat = 2;
  JobSpec Bad;
  Bad.Benchmark = "no_such_benchmark";

  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  CampaignOptions Opts;
  Opts.Cache = &Store.cache();
  CampaignResult CR = runCampaign({Good, Bad}, Opts);
  EXPECT_EQ(CR.Summary.Failed, 1u);
  EXPECT_EQ(Store.cache().size(), 2u); // in-memory keeps both
  ASSERT_TRUE(Store.save());

  // A failure may be a bug the next build fixes, so only the success
  // survives the round-trip and the failed job re-runs.
  CacheStore Reload;
  ASSERT_TRUE(Reload.open(Dir));
  EXPECT_EQ(Reload.loadedEntries(), 1u);
  CampaignOptions Opts2;
  Opts2.Cache = &Reload.cache();
  CampaignResult CR2 = runCampaign({Good, Bad}, Opts2);
  EXPECT_EQ(CR2.Summary.UniqueRuns, 1u);
  EXPECT_EQ(CR2.Summary.CacheHits, 1u);
}

TEST(CacheStore, FingerprintIsStableWithinAProcess) {
  EXPECT_EQ(CacheStore::fingerprint(), CacheStore::fingerprint());
  EXPECT_EQ(CacheStore::fingerprint().size(), 16u);
  // The profile fingerprint tracks simulator semantics, not device
  // tables: it must be stable and distinct from the results fingerprint.
  EXPECT_EQ(CacheStore::profileFingerprint(),
            CacheStore::profileFingerprint());
  EXPECT_EQ(CacheStore::profileFingerprint().size(), 16u);
  EXPECT_NE(CacheStore::profileFingerprint(), CacheStore::fingerprint());
}

TEST(CacheStore, SaveAppendsNewEntriesWithoutRewriting) {
  std::string Dir = freshDir("append");
  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  CampaignOptions Opts;
  Opts.Cache = &Store.cache();
  runCampaign(tinyGrid(), Opts);
  ASSERT_TRUE(Store.save());
  std::string FirstDoc = slurp(Store.path());

  // More work into the same store: save must extend the file, keeping
  // the earlier bytes as an untouched prefix (the append property a
  // concurrent writer's lines depend on).
  GridSpec More = tinyGrid();
  More.RsparePoints = {1024};
  runCampaign(More, Opts);
  ASSERT_TRUE(Store.save());
  std::string SecondDoc = slurp(Store.path());
  ASSERT_GT(SecondDoc.size(), FirstDoc.size());
  EXPECT_EQ(SecondDoc.substr(0, FirstDoc.size()), FirstDoc);

  CacheStore Reload;
  ASSERT_TRUE(Reload.open(Dir));
  EXPECT_EQ(Reload.loadedEntries(), 3u);
}

TEST(CacheStore, ConcurrentWritersBothSurvive) {
  // Two stores over one directory (two shard workers, say). With the old
  // rewrite-on-save semantics the second save clobbered the first; with
  // append-mode both writers' entries survive.
  std::string Dir = freshDir("concurrent");
  CacheStore A, B;
  ASSERT_TRUE(A.open(Dir));
  ASSERT_TRUE(B.open(Dir));

  GridSpec GridA = tinyGrid();
  GridA.RsparePoints = {256};
  CampaignOptions OptsA;
  OptsA.Cache = &A.cache();
  runCampaign(GridA, OptsA);
  ASSERT_TRUE(A.save());

  GridSpec GridB = tinyGrid();
  GridB.RsparePoints = {1024};
  CampaignOptions OptsB;
  OptsB.Cache = &B.cache();
  runCampaign(GridB, OptsB);
  ASSERT_TRUE(B.save());

  CacheStore Reload;
  ASSERT_TRUE(Reload.open(Dir));
  EXPECT_EQ(Reload.loadedEntries(), 2u);
  EXPECT_EQ(Reload.skippedLines(), 0u);
}

TEST(CacheStore, CompactFoldsDuplicateAppends) {
  // Two writers racing the same grid append duplicate records; loads
  // keep the first of each key, and compact() rewrites one sorted copy.
  std::string Dir = freshDir("compact");
  CacheStore A, B;
  ASSERT_TRUE(A.open(Dir));
  ASSERT_TRUE(B.open(Dir));
  CampaignOptions OptsA, OptsB;
  OptsA.Cache = &A.cache();
  OptsB.Cache = &B.cache();
  runCampaign(tinyGrid(), OptsA);
  runCampaign(tinyGrid(), OptsB);
  ASSERT_TRUE(A.save());
  ASSERT_TRUE(B.save());

  // Duplicated lines on disk, deduplicated in memory.
  // Appends lead with a newline, so count non-empty lines.
  auto lines = [](const std::string &Doc) {
    size_t N = 0;
    for (size_t I = 0; I != Doc.size(); ++I)
      N += Doc[I] == '\n' && I != 0 && Doc[I - 1] != '\n';
    return N;
  };
  EXPECT_EQ(lines(slurp(A.path())), 1u + 4u); // header + 2 per writer
  CacheStore Before;
  ASSERT_TRUE(Before.open(Dir));
  EXPECT_EQ(Before.loadedEntries(), 2u);

  ASSERT_TRUE(Before.compact());
  EXPECT_EQ(lines(slurp(Before.path())), 1u + 2u);
  CacheStore After;
  ASSERT_TRUE(After.open(Dir));
  EXPECT_EQ(After.loadedEntries(), 2u);
}

TEST(CacheStore, ProfilesPersistAndServeNewDevices) {
  // Execution profiles are device-independent, so a store written while
  // sweeping one device turns a later process's sweep of *different*
  // devices into pure recosts — even though those results are not cached.
  std::string Dir = freshDir("profiles");
  GridSpec Grid = tinyGrid();
  Grid.Kind = JobKind::ModelOnly;
  Grid.FreqModes = {FreqMode::Profiled};
  Grid.RsparePoints = {256};
  Grid.Devices = {"stm32f100"};

  CacheStore First;
  ASSERT_TRUE(First.open(Dir));
  MetricsRegistry Reg1, Reg2;
  CampaignOptions Opts;
  Opts.Cache = &First.cache();
  Opts.Profiles = &First.profiles();
  Opts.Metrics = &Reg1;
  CampaignResult CR1 = runCampaign(Grid, Opts);
  ASSERT_EQ(CR1.Summary.Failed, 0u);
  EXPECT_EQ(Reg1.counterValue("campaign.sim.full_sims"), 1u);
  ASSERT_TRUE(First.save());

  CacheStore Second;
  ASSERT_TRUE(Second.open(Dir));
  EXPECT_EQ(Second.loadedProfiles(), 1u);
  Grid.Devices = {"stm32f100-2ws"};
  CampaignOptions Opts2;
  Opts2.Cache = &Second.cache();
  Opts2.Profiles = &Second.profiles();
  Opts2.Metrics = &Reg2;
  CampaignResult CR2 = runCampaign(Grid, Opts2);
  ASSERT_EQ(CR2.Summary.Failed, 0u);
  EXPECT_EQ(Reg2.counterValue("campaign.sim.full_sims"), 0u);
  EXPECT_EQ(Reg2.counterValue("campaign.sim.recosts"), 1u);
}

TEST(CacheStore, MeasureGridsPersistOnlyBaselineProfiles) {
  // Optimized images derive their profiles from the baseline's, so a
  // Measure grid simulates and persists the baseline alone, and a later
  // process's new knob points are all recosts.
  std::string Dir = freshDir("baseline-profiles");
  GridSpec Grid = tinyGrid();

  CacheStore First;
  ASSERT_TRUE(First.open(Dir));
  MetricsRegistry Reg1, Reg2;
  auto derived = [] { return globalMetrics().counterValue("sim.derived"); };
  CampaignOptions Opts;
  Opts.Cache = &First.cache();
  Opts.Profiles = &First.profiles();
  Opts.Metrics = &Reg1;
  uint64_t DerivedBefore = derived();
  CampaignResult CR1 = runCampaign(Grid, Opts);
  ASSERT_EQ(CR1.Summary.Failed, 0u);
  EXPECT_EQ(Reg1.counterValue("campaign.sim.full_sims"), 1u);
  EXPECT_GE(Reg1.counterValue("campaign.sim.recosts"), 1u);
  EXPECT_EQ(Reg1.counterValue("campaign.sim.recosts"),
            derived() - DerivedBefore);
  EXPECT_EQ(profileSnapshot(First.profiles()).size(), 1u);
  ASSERT_TRUE(First.save());

  CacheStore Second;
  ASSERT_TRUE(Second.open(Dir));
  EXPECT_EQ(Second.loadedProfiles(), 1u);
  Grid.RsparePoints = {384, 768, 1024};
  CampaignOptions Opts2;
  Opts2.Cache = &Second.cache();
  Opts2.Profiles = &Second.profiles();
  Opts2.Metrics = &Reg2;
  DerivedBefore = derived();
  CampaignResult CR2 = runCampaign(Grid, Opts2);
  ASSERT_EQ(CR2.Summary.Failed, 0u);
  EXPECT_EQ(Reg2.counterValue("campaign.sim.full_sims"), 0u);
  EXPECT_GE(derived() - DerivedBefore, 1u);
  EXPECT_EQ(Reg2.counterValue("campaign.sim.recosts"),
            1 + (derived() - DerivedBefore));
  EXPECT_EQ(profileSnapshot(Second.profiles()).size(), 1u);
}

TEST(CacheStore, LeftoverIncumbentFileIsNeitherReadNorTouched) {
  // Older builds kept a best-known placement per solve group in
  // incumbents.jsonl. A store they filled opens as if the file were not
  // there: the same counts, no quarantine, no fsck line, and neither a
  // repair nor a compaction rewrites it.
  std::string Dir = freshDir("leftover-incumbents");
  {
    CacheStore Seed;
    ASSERT_TRUE(Seed.open(Dir));
    CampaignOptions Opts;
    Opts.Cache = &Seed.cache();
    Opts.Profiles = &Seed.profiles();
    runCampaign(tinyGrid(), Opts);
    ASSERT_TRUE(Seed.save());
  }
  CacheStore Without;
  ASSERT_TRUE(Without.open(Dir));

  // The bytes such a build wrote, plus a torn fragment it would have
  // quarantined.
  std::string Leftover =
      (std::filesystem::path(Dir) / "incumbents.jsonl").string();
  const std::string Doc =
      "25462ab6 {\"schema\":\"ramloc-incumbents-v2\",\"fingerprint\":"
      "\"68e15f2919c88df0\"}\n"
      "55e82a3e {\"group\":\"crc32|O1|r0|stm32f100|static|model-only\","
      "\"energy_mj\":0.00076523333333333309,\"blocks\":\"111111\"}\n"
      "\n55e82a3e {\"group\":\"crc";
  ASSERT_TRUE(writeTextFile(Leftover, Doc));

  CacheStore With;
  ASSERT_TRUE(With.open(Dir));
  EXPECT_EQ(With.loadedEntries(), Without.loadedEntries());
  EXPECT_EQ(With.skippedLines(), Without.skippedLines());
  EXPECT_EQ(With.loadedProfiles(), Without.loadedProfiles());
  EXPECT_EQ(With.skippedProfileLines(), Without.skippedProfileLines());
  EXPECT_EQ(With.crcMismatches(), 0u);
  EXPECT_FALSE(std::filesystem::exists(Leftover + ".quarantine"));

  CacheStore::FsckReport Report;
  ASSERT_TRUE(With.fsck(/*Repair=*/false, Report));
  EXPECT_FALSE(Report.damaged());
  std::vector<std::string> Names;
  for (const CacheStore::FsckFile &F : Report.Files)
    Names.push_back(F.Name);
  EXPECT_EQ(Names, (std::vector<std::string>{"results", "profiles",
                                             "progress"}));

  // A repair of a damaged results file, then a compaction: both rewrite
  // store files, neither the leftover.
  {
    std::ofstream Out(With.path(), std::ios::binary | std::ios::app);
    Out << "never framed\n";
  }
  ASSERT_TRUE(With.fsck(/*Repair=*/true, Report));
  EXPECT_TRUE(Report.damaged());
  EXPECT_EQ(slurp(Leftover), Doc);
  ASSERT_TRUE(With.compact());
  EXPECT_EQ(slurp(Leftover), Doc);
  EXPECT_FALSE(std::filesystem::exists(Leftover + ".quarantine"));
}
