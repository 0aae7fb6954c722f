//===- tests/FaultTest.cpp - fault injection and graceful degradation --------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The robustness contract end to end: the deterministic fault injector
/// itself, retry-with-backoff around the cache store's I/O, torn-tail
/// recovery of the progress journal and incumbent store, cooperative
/// solver limits that degrade to truthfully-labelled best-effort
/// answers, and campaign-level behaviour under injected job aborts.
///
//===----------------------------------------------------------------------===//

#include "RandomMip.h"

#include "campaign/CacheStore.h"
#include "campaign/Campaign.h"
#include "campaign/Report.h"
#include "lp/BranchBound.h"
#include "support/FaultInjector.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>

using namespace ramloc;

namespace {

/// A fresh, empty directory under the test temp root.
std::string freshDir(const std::string &Name) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / "ramloc-fault" / Name;
  std::filesystem::remove_all(Dir);
  return Dir.string();
}

std::string slurp(const std::string &Path) {
  std::string Out;
  EXPECT_TRUE(readTextFile(Path, Out));
  return Out;
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

/// Replicates the injector's decision function (documented in
/// FaultInjector.h): fire call N of \p Site iff
/// SplitMix64(seed ^ fnv1a64(site) + N) < rate.
bool wouldFire(const std::string &Site, uint64_t Seed, uint64_t Call,
               double Rate) {
  SplitMix64 Rng((Seed ^ fnv1a64(Site)) + Call);
  return Rng.nextDouble() < Rate;
}

} // namespace

//===----------------------------------------------------------------------===//
// The injector itself
//===----------------------------------------------------------------------===//

TEST(FaultInjector, OffByDefaultAndFree) {
  FaultInjector::uninstall();
  EXPECT_EQ(FaultInjector::current(), nullptr);
  EXPECT_FALSE(FaultInjector::shouldFail("cache.append.eio"));
  EXPECT_FALSE(FaultInjector::shouldFail("anything.at.all"));
}

TEST_F(FaultTestGuard, RateOneAlwaysFiresRateZeroNever) {
  FaultInjector F;
  F.arm("always", 1.0);
  F.arm("never", 0.0);
  F.install();
  for (int I = 0; I != 50; ++I) {
    EXPECT_TRUE(FaultInjector::shouldFail("always"));
    EXPECT_FALSE(FaultInjector::shouldFail("never"));
    // Unarmed sites are consulted but never fire.
    EXPECT_FALSE(FaultInjector::shouldFail("unarmed"));
  }
  EXPECT_EQ(F.firedCount("always"), 50u);
  EXPECT_EQ(F.callCount("always"), 50u);
  EXPECT_EQ(F.firedCount("never"), 0u);
  EXPECT_EQ(F.callCount("never"), 50u);
}

TEST_F(FaultTestGuard, DecisionIsAPureFunctionOfSiteSeedAndCallIndex) {
  // Two injectors armed identically must produce the same fire sequence,
  // and it must match the documented decision function — that is what
  // makes a failing fault run replayable from its spec alone.
  std::vector<bool> First;
  for (int Round = 0; Round != 2; ++Round) {
    FaultInjector F;
    F.arm("flaky", 0.5, 1234);
    F.install();
    std::vector<bool> Fires;
    for (uint64_t I = 0; I != 200; ++I) {
      bool Fired = FaultInjector::shouldFail("flaky");
      EXPECT_EQ(Fired, wouldFire("flaky", 1234, I, 0.5));
      Fires.push_back(Fired);
    }
    FaultInjector::uninstall();
    if (Round == 0)
      First = Fires;
    else
      EXPECT_EQ(First, Fires);
  }
  // A 0.5 rate over 200 calls fires somewhere strictly between the
  // extremes — the sequence is random-looking even though deterministic.
  size_t Fired = static_cast<size_t>(std::count(First.begin(), First.end(), true));
  EXPECT_GT(Fired, 50u);
  EXPECT_LT(Fired, 150u);
}

TEST_F(FaultTestGuard, SitesAreIndependent) {
  // Interleaving calls to one site must not shift another's sequence:
  // each site keeps its own counter and seed base.
  FaultInjector F;
  F.arm("a", 0.5, 7);
  F.arm("b", 0.5, 7);
  F.install();
  for (uint64_t I = 0; I != 100; ++I) {
    EXPECT_EQ(FaultInjector::shouldFail("a"), wouldFire("a", 7, I, 0.5));
    if (I % 3 == 0) // uneven interleaving on purpose
      EXPECT_EQ(FaultInjector::shouldFail("b"),
                wouldFire("b", 7, I / 3, 0.5));
  }
}

TEST(FaultInjector, ArmSpecParsesAndRejects) {
  FaultInjector F;
  std::string Error;
  EXPECT_TRUE(F.armSpec("cache.append.eio:0.5", Error)) << Error;
  EXPECT_TRUE(F.armSpec("job.abort:1:42", Error)) << Error;
  EXPECT_EQ(F.armedSites().size(), 2u);

  EXPECT_FALSE(F.armSpec("", Error));
  EXPECT_FALSE(F.armSpec("noseparator", Error));
  EXPECT_FALSE(F.armSpec("site:", Error));
  EXPECT_FALSE(F.armSpec(":0.5", Error));
  EXPECT_FALSE(F.armSpec("site:notanumber", Error));
  EXPECT_FALSE(F.armSpec("site:1.5", Error)); // rate out of range
  EXPECT_FALSE(F.armSpec("site:-0.1", Error));
  EXPECT_FALSE(F.armSpec("site:0.5:notaseed", Error));
  EXPECT_EQ(F.armedSites().size(), 2u); // rejects armed nothing
}

TEST_F(FaultTestGuard, DestructorUninstallsItself) {
  {
    FaultInjector F;
    F.arm("x", 1.0);
    F.install();
    EXPECT_TRUE(FaultInjector::shouldFail("x"));
  }
  EXPECT_EQ(FaultInjector::current(), nullptr);
  EXPECT_FALSE(FaultInjector::shouldFail("x"));
}

//===----------------------------------------------------------------------===//
// Retry-with-backoff around cache store I/O
//===----------------------------------------------------------------------===//

TEST_F(FaultTestGuard, AppendRetryRecoversFromOneShortWrite) {
  // Pick a seed whose decision sequence for the short-write site is
  // fire-then-clear: the first append attempt tears, the retry lands.
  const char *Site = "cache.append.short";
  uint64_t Seed = 0;
  while (!(wouldFire(Site, Seed, 0, 0.5) && !wouldFire(Site, Seed, 1, 0.5) &&
           !wouldFire(Site, Seed, 2, 0.5)))
    ++Seed;

  std::string Dir = freshDir("retry-short");
  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  Store.cache().insert(makeResult(256).Spec.cacheKey(), makeResult(256));
  std::string Setup;
  ASSERT_TRUE(Store.save(&Setup)) << Setup; // fresh files rewrite, not append
  Store.cache().insert(makeResult(512).Spec.cacheKey(), makeResult(512));

  uint64_t RetriesBefore = globalMetrics().counterValue("cachestore.retries");
  FaultInjector F;
  F.arm(Site, 0.5, Seed);
  F.install();
  std::string Error;
  EXPECT_TRUE(Store.save(&Error)) << Error;
  FaultInjector::uninstall();
  EXPECT_EQ(F.firedCount(Site), 1u);
  EXPECT_GE(globalMetrics().counterValue("cachestore.retries"),
            RetriesBefore + 1);

  // The torn first attempt plus the retried line must load back as
  // exactly two valid entries — the retry prepends a newline so the
  // fragment becomes one corrupt (skipped) line, never a fused record.
  CacheStore Reload;
  ASSERT_TRUE(Reload.open(Dir));
  EXPECT_EQ(Reload.loadedEntries(), 2u);
}

TEST_F(FaultTestGuard, PersistentIoFailureIsReportedNotFatal) {
  std::string Dir = freshDir("retry-exhausted");
  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  Store.cache().insert(makeResult(256).Spec.cacheKey(), makeResult(256));
  std::string Setup;
  ASSERT_TRUE(Store.save(&Setup)) << Setup; // fresh files rewrite, not append
  Store.cache().insert(makeResult(512).Spec.cacheKey(), makeResult(512));

  uint64_t RetriesBefore = globalMetrics().counterValue("cachestore.retries");
  FaultInjector F;
  F.arm("cache.append.eio", 1.0);
  F.install();
  std::string Error;
  EXPECT_FALSE(Store.save(&Error));
  EXPECT_FALSE(Error.empty());
  FaultInjector::uninstall();
  // Three attempts, two of them retries.
  EXPECT_GE(globalMetrics().counterValue("cachestore.retries"),
            RetriesBefore + 2);

  // The injector gone, the same save succeeds and the store is whole.
  EXPECT_TRUE(Store.save(&Error)) << Error;
  CacheStore Reload;
  ASSERT_TRUE(Reload.open(Dir));
  EXPECT_EQ(Reload.loadedEntries(), 2u);
}

TEST_F(FaultTestGuard, InjectedRenameFailureLeavesOldFileIntact) {
  std::string Dir = freshDir("rename-fault");
  {
    CacheStore Store;
    ASSERT_TRUE(Store.open(Dir));
    Store.cache().insert(makeResult(256).Spec.cacheKey(), makeResult(256));
    std::string Error;
    ASSERT_TRUE(Store.save(&Error)) << Error;
  }
  std::string Before = slurp((std::filesystem::path(Dir) / "results.jsonl").string());

  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  FaultInjector F;
  F.arm("cache.rename", 1.0);
  F.install();
  std::string Error;
  EXPECT_FALSE(Store.compact(&Error));
  FaultInjector::uninstall();

  // Atomic replace: a failed rename must leave the original bytes.
  EXPECT_EQ(slurp((std::filesystem::path(Dir) / "results.jsonl").string()),
            Before);
}

TEST_F(FaultTestGuard, StoreOperationsConsultEachSiteAFixedNumberOfTimes) {
  // Every seeded fault test picks its seed by a site's call index, so the
  // number of consultations per store operation is part of the contract.
  // Rate 0 never fires but still counts calls.
  const char *const Sites[] = {"cache.load.eio",     "cache.load.flip",
                               "cache.append.eio",   "cache.append.short",
                               "cache.rename",       "cache.lock"};
  FaultInjector F;
  for (const char *Site : Sites)
    F.arm(Site, 0.0);
  F.install();
  using Counts = std::array<uint64_t, 6>;
  auto counts = [&] {
    Counts C;
    for (size_t I = 0; I != C.size(); ++I)
      C[I] = F.callCount(Sites[I]);
    return C;
  };
  auto profile = [](uint64_t Instructions) {
    auto P = std::make_shared<ExecutionProfile>();
    P->Instructions = Instructions;
    P->Valid = true;
    return P;
  };

  std::string Dir = freshDir("site-sequence");
  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  EXPECT_EQ(counts(), (Counts{3, 0, 0, 0, 0, 0})) << "open";

  // Fresh files: three locked rewrites.
  Store.cache().insert(makeResult(256).Spec.cacheKey(), makeResult(256));
  Store.profiles().preload("p1", profile(10));
  Store.incumbents().offer("g", {false, true}, 9.0);
  std::string Error;
  ASSERT_TRUE(Store.save(&Error)) << Error;
  EXPECT_EQ(counts(), (Counts{3, 0, 0, 0, 3, 3})) << "first save";

  // Healthy files: one append per file with new records.
  Store.cache().insert(makeResult(512).Spec.cacheKey(), makeResult(512));
  Store.profiles().preload("p2", profile(20));
  Store.incumbents().offer("g", {true, true}, 3.0);
  ASSERT_TRUE(Store.save(&Error)) << Error;
  EXPECT_EQ(counts(), (Counts{3, 0, 3, 3, 3, 3})) << "appending save";

  ASSERT_TRUE(Store.compact(&Error)) << Error;
  EXPECT_EQ(counts(), (Counts{3, 0, 3, 3, 6, 6})) << "compact";

  // One damaged results line: fsck walks all four files (the journal is
  // absent) and repair rewrites results alone.
  {
    std::ofstream Out(Store.path(), std::ios::binary | std::ios::app);
    Out << "never framed\n";
  }
  CacheStore::FsckReport Report;
  ASSERT_TRUE(Store.fsck(/*Repair=*/true, Report, &Error)) << Error;
  EXPECT_EQ(counts(), (Counts{7, 9, 3, 3, 7, 7})) << "fsck --repair";

  ASSERT_TRUE(Store.beginJournal("cfg", /*Resume=*/false, &Error)) << Error;
  EXPECT_EQ(counts(), (Counts{7, 9, 3, 3, 8, 8})) << "fresh journal";
  ASSERT_TRUE(Store.appendJournal(makeResult(256), &Error)) << Error;
  ASSERT_TRUE(Store.appendJournal(makeResult(512), &Error)) << Error;
  EXPECT_EQ(counts(), (Counts{7, 9, 5, 5, 8, 8})) << "journal appends";
  ASSERT_TRUE(Store.beginJournal("cfg", /*Resume=*/true, &Error)) << Error;
  EXPECT_EQ(Store.journalEntries().size(), 2u);
  EXPECT_EQ(counts(), (Counts{8, 12, 5, 5, 8, 8})) << "resumed journal";

  // A reload reads every line of the three record files once.
  CacheStore Reload;
  ASSERT_TRUE(Reload.open(Dir));
  EXPECT_EQ(counts(), (Counts{11, 20, 5, 5, 8, 8})) << "reload";
}

//===----------------------------------------------------------------------===//
// Progress journal: round-trip, torn tails, config pinning
//===----------------------------------------------------------------------===//

TEST(Journal, RoundTripsFailedAndDegradedEntries) {
  std::string Dir = freshDir("journal-roundtrip");
  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  std::string Error;
  ASSERT_TRUE(Store.beginJournal("limits:t0:n0:p0", /*Resume=*/false, &Error))
      << Error;

  JobResult Ok = makeResult(256);
  JobResult Degraded = makeResult(512);
  Degraded.SolveOutcome = SolveStatus::FeasibleLimit;
  JobResult Failed = makeResult(1024);
  Failed.Error = "simulated failure";
  ASSERT_TRUE(Store.appendJournal(Ok, &Error)) << Error;
  ASSERT_TRUE(Store.appendJournal(Degraded, &Error)) << Error;
  ASSERT_TRUE(Store.appendJournal(Failed, &Error)) << Error;

  // Unlike results.jsonl, the journal's contract is "reproduce the
  // interrupted run's report": failures and degraded answers replay too.
  CacheStore Resumed;
  ASSERT_TRUE(Resumed.open(Dir));
  ASSERT_TRUE(Resumed.beginJournal("limits:t0:n0:p0", /*Resume=*/true, &Error))
      << Error;
  ASSERT_EQ(Resumed.journalEntries().size(), 3u);
  EXPECT_EQ(Resumed.journalSkipped(), 0u);
  EXPECT_EQ(Resumed.journalEntries()[0].Spec.cacheKey(), Ok.Spec.cacheKey());
  EXPECT_EQ(Resumed.journalEntries()[1].SolveOutcome,
            SolveStatus::FeasibleLimit);
  EXPECT_FALSE(Resumed.journalEntries()[2].ok());
  EXPECT_EQ(Resumed.journalEntries()[2].Error, "simulated failure");
}

TEST(Journal, TornTailIsDroppedAndNeverPoisonsLaterAppends) {
  std::string Dir = freshDir("journal-torn");
  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  std::string Error;
  ASSERT_TRUE(Store.beginJournal("cfg", false, &Error)) << Error;
  ASSERT_TRUE(Store.appendJournal(makeResult(256), &Error)) << Error;
  ASSERT_TRUE(Store.appendJournal(makeResult(512), &Error)) << Error;

  // Kill mid-append: chop the final line in half, newline included.
  std::string Doc = slurp(Store.journalPath());
  std::ofstream(Store.journalPath(), std::ios::binary)
      << Doc.substr(0, Doc.size() - Doc.size() / 4);

  // Resume drops exactly the torn tail, keeps the complete prefix, and
  // terminates the fragment so the next append starts a fresh line.
  CacheStore Resumed;
  ASSERT_TRUE(Resumed.open(Dir));
  ASSERT_TRUE(Resumed.beginJournal("cfg", true, &Error)) << Error;
  EXPECT_EQ(Resumed.journalEntries().size(), 1u);
  EXPECT_EQ(Resumed.journalSkipped(), 1u);
  ASSERT_TRUE(Resumed.appendJournal(makeResult(512), &Error)) << Error;

  CacheStore Again;
  ASSERT_TRUE(Again.open(Dir));
  ASSERT_TRUE(Again.beginJournal("cfg", true, &Error)) << Error;
  EXPECT_EQ(Again.journalEntries().size(), 2u);
  EXPECT_EQ(Again.journalSkipped(), 1u); // the fragment, now one bad line
}

TEST(Journal, ConfigTokenMismatchDiscardsTheJournal) {
  // A journal written under different solver limits describes different
  // results; resuming it would mislabel best-effort answers as this
  // run's. The header pins the config and a mismatch replays nothing.
  std::string Dir = freshDir("journal-config");
  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  std::string Error;
  ASSERT_TRUE(Store.beginJournal("limits:t5:n0:p0", false, &Error)) << Error;
  ASSERT_TRUE(Store.appendJournal(makeResult(256), &Error)) << Error;

  CacheStore Resumed;
  ASSERT_TRUE(Resumed.open(Dir));
  ASSERT_TRUE(Resumed.beginJournal("limits:t0:n0:p0", true, &Error)) << Error;
  EXPECT_TRUE(Resumed.journalEntries().empty());

  // The mismatched resume rewrote a fresh header under its own token:
  // a follow-up resume under that token finds an empty, valid journal.
  CacheStore Third;
  ASSERT_TRUE(Third.open(Dir));
  ASSERT_TRUE(Third.beginJournal("limits:t0:n0:p0", true, &Error)) << Error;
  EXPECT_TRUE(Third.journalEntries().empty());
  EXPECT_EQ(Third.journalSkipped(), 0u);
}

TEST(Journal, SolverConfigTokenPinsSolverSettingsButNotJobs) {
  // The token ramloc-batch pins: a resume at a different --jobs replays
  // the journal, while one under a different solver limit or warm/cold
  // switch — either of which can move a tie or a label — replays nothing
  // and recomputes under its own settings.
  std::string Dir = freshDir("journal-solver-token");
  CampaignOptions Written;
  Written.Jobs = 1;
  {
    CacheStore Store;
    ASSERT_TRUE(Store.open(Dir));
    std::string Error;
    ASSERT_TRUE(Store.beginJournal(solverConfigToken(Written.Base.Solver),
                                   false, &Error))
        << Error;
    ASSERT_TRUE(Store.appendJournal(makeResult(256), &Error)) << Error;
  }

  auto replayed = [&](const CampaignOptions &Opts) {
    CacheStore Store;
    EXPECT_TRUE(Store.open(Dir));
    std::string Error;
    EXPECT_TRUE(Store.beginJournal(solverConfigToken(Opts.Base.Solver),
                                   true, &Error))
        << Error;
    return Store.journalEntries().size();
  };
  CampaignOptions MoreJobs = Written;
  MoreJobs.Jobs = 4;
  EXPECT_EQ(replayed(MoreJobs), 1u);

  CampaignOptions NodeCapped = Written;
  NodeCapped.Base.Solver.NodeLimit = 1000000;
  EXPECT_EQ(replayed(NodeCapped), 0u);
  // That mismatched resume re-headed the journal under the node cap's
  // token, so the original settings now find nothing to replay either.
  EXPECT_EQ(replayed(Written), 0u);
}

TEST(Journal, ClearRemovesTheFile) {
  std::string Dir = freshDir("journal-clear");
  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  std::string Error;
  ASSERT_TRUE(Store.beginJournal("cfg", false, &Error)) << Error;
  ASSERT_TRUE(std::filesystem::exists(Store.journalPath()));
  std::string Path = Store.journalPath();
  Store.clearJournal();
  EXPECT_FALSE(std::filesystem::exists(Path));
}

TEST(Incumbents, TruncatedTailIsSkippedAndRecomputed) {
  // The incumbent store shares the torn-tail discipline: a killed writer
  // costs the final line, never the file.
  std::string Dir = freshDir("inc-torn");
  GridSpec Grid;
  Grid.Benchmarks = {"crc32"};
  Grid.Levels = {OptLevel::O1};
  Grid.Kind = JobKind::ModelOnly;
  {
    CacheStore Store;
    ASSERT_TRUE(Store.open(Dir));
    CampaignOptions Opts;
    Opts.Cache = &Store.cache();
    Opts.Incumbents = &Store.incumbents();
    runCampaign(Grid, Opts);
    std::string Error;
    ASSERT_TRUE(Store.save(&Error)) << Error;
  }
  std::string IncPath = (std::filesystem::path(Dir) / "incumbents.jsonl").string();
  std::string Doc = slurp(IncPath);
  ASSERT_GT(Doc.size(), 20u);
  std::ofstream(IncPath, std::ios::binary) << Doc.substr(0, Doc.size() - 10);

  CacheStore Reload;
  ASSERT_TRUE(Reload.open(Dir)); // no abort, no poisoned state
  EXPECT_EQ(Reload.loadedIncumbents(), 0u);
  EXPECT_EQ(Reload.skippedIncumbentLines(), 1u);

  // The next campaign recomputes and re-offers; save appends past the
  // torn fragment — it must NOT rewrite, a rewrite would discard lines
  // other writers appended since we opened. The fragment stays behind
  // as one quarantined line until a compaction removes it. (No result
  // cache on purpose: a served hit would skip the solve and with it the
  // incumbent offer we are testing for.)
  CampaignOptions Opts;
  Opts.Incumbents = &Reload.incumbents();
  runCampaign(Grid, Opts);
  std::string Error;
  ASSERT_TRUE(Reload.save(&Error)) << Error;
  CacheStore Healed;
  ASSERT_TRUE(Healed.open(Dir));
  EXPECT_EQ(Healed.loadedIncumbents(), 1u);
  EXPECT_EQ(Healed.skippedIncumbentLines(), 1u); // the torn fragment

  // Compaction is the repair path: afterwards the store is pristine.
  ASSERT_TRUE(Healed.compact(&Error)) << Error;
  CacheStore Clean;
  ASSERT_TRUE(Clean.open(Dir));
  EXPECT_EQ(Clean.loadedIncumbents(), 1u);
  EXPECT_EQ(Clean.skippedIncumbentLines(), 0u);
}

//===----------------------------------------------------------------------===//
// Cooperative solver limits: best-effort answers, truthful labels
//===----------------------------------------------------------------------===//

namespace {

LpProblem knapsackForSeed(uint64_t Seed) {
  SplitMix64 Rng(Seed * 6151 + 29);
  return randomKnapsack(Rng, /*MinVars=*/6);
}

/// Solves \p P unlimited (on \p Chain's warm state when given) and then
/// under three random node/pivot budgets, checking each answer's label
/// against the true optimum \p Reference. \p Cost prices a returned
/// point (+inf when it does not fit), and \p Tol is the tolerance on it.
template <typename CostFn>
void checkBestEffortLabels(const LpProblem &P, CostFn Cost, double Reference,
                           double Tol, SplitMix64 &Rng,
                           MipWarmStart *Chain = nullptr) {
  MipSolution Full = solveMip(P, SolverConfig(), Chain);
  ASSERT_TRUE(Full.feasible()); // all-zeros is feasible by construction
  EXPECT_TRUE(Full.Proven);
  EXPECT_EQ(Full.Outcome, SolveStatus::Optimal);
  EXPECT_NEAR(Cost(Full.Values), Reference, Tol);

  for (int Budget = 0; Budget != 3; ++Budget) {
    SolverConfig Cfg;
    Cfg.NodeLimit = 1 + Rng.nextBelow(4);
    if (Budget == 1)
      Cfg.PivotLimit = 1 + Rng.nextBelow(20);
    if (Budget == 2)
      Cfg.NodeLimit = 0, Cfg.PivotLimit = 1; // pivot budget alone
    MipSolution S = solveMip(P, Cfg);
    switch (S.Outcome) {
    case SolveStatus::Optimal:
      // A completed proof under a budget is still a proof.
      EXPECT_TRUE(S.Proven);
      EXPECT_NEAR(Cost(S.Values), Reference, Tol);
      break;
    case SolveStatus::FeasibleLimit:
      // Best effort: feasible, and never better than the optimum.
      ASSERT_TRUE(S.feasible());
      EXPECT_FALSE(S.Proven);
      EXPECT_TRUE(std::isfinite(Cost(S.Values)));
      EXPECT_GE(Cost(S.Values), Reference - Tol);
      break;
    case SolveStatus::Aborted:
      // No incumbent found before the budget ran out.
      EXPECT_FALSE(S.feasible());
      break;
    case SolveStatus::InfeasibleProven:
      ADD_FAILURE() << "feasible problem proven infeasible";
      break;
    }
  }
}

} // namespace

/// Property sweep: under any node/pivot budget the solver returns its
/// best incumbent, the objective never beats the true optimum, and the
/// Outcome label is truthful — Optimal only with a completed proof. The
/// inputs are a small knapsack and a placement-shaped model whose ~1e7
/// time-row coefficients sit beside +-1 McCormick rows, with both budget
/// rows tightened so they bind. The model's continuous values carry
/// ~1e-8 round-off, so its points are priced by the cheapest completion
/// of their binaries.
class LimitedMip : public ::testing::TestWithParam<int> {};

TEST_P(LimitedMip, BestEffortNeverMislabelled) {
  SplitMix64 Rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  {
    SCOPED_TRACE("knapsack");
    LpProblem P = knapsackForSeed(static_cast<uint64_t>(GetParam()));
    auto Cost = [&P](const std::vector<double> &V) {
      return P.isFeasible(V) ? P.objectiveValue(V)
                             : std::numeric_limits<double>::infinity();
    };
    checkBestEffortLabels(P, Cost, bruteForceOptimum(P), 1e-6, Rng);
  }
  {
    SplitMix64 ModelRng(static_cast<uint64_t>(GetParam()) * 104723 + 11);
    ScaledModel M = scaledModel(ModelRng);
    // Objectives are sums of ~1e7 terms: compare at that scale.
    double Scale = 0.0;
    for (const LpVariable &V : M.P.Variables)
      Scale += std::abs(V.Objective);
    auto Cost = [&M](const std::vector<double> &V) {
      uint64_t Mask = 0;
      for (unsigned J = 0; J != M.NumX; ++J)
        Mask |= uint64_t(V[J] > 0.5) << J;
      return completion(M, Mask);
    };
    // A knob chain, loosest point first, whose unlimited solves share one
    // warm state as a campaign's do.
    MipWarmStart Chain;
    for (unsigned K = 0; K != 4; ++K) {
      SCOPED_TRACE("scaled model, point " + std::to_string(K));
      if (K != 0) {
        M.P.Constraints[M.RamRow].Rhs =
            std::floor((0.1 + 0.6 * ModelRng.nextDouble()) * M.MaxRam);
        M.P.Constraints[M.TimeRow].Rhs =
            (0.02 + 0.5 * ModelRng.nextDouble()) * M.MaxTime;
      }
      checkBestEffortLabels(M.P, Cost, bruteForceScaled(M), 1e-9 * Scale,
                            Rng, &Chain);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LimitedMip, ::testing::Range(0, 30));

TEST(Limits, InfeasibleIsProvenEvenUnderBudgets) {
  LpProblem P;
  unsigned A = P.addBinary(-1);
  P.addConstraint({{A, 1.0}}, ConstraintSense::GreaterEq, 2);
  SolverConfig Cfg;
  Cfg.NodeLimit = 1;
  MipSolution S = solveMip(P, Cfg);
  EXPECT_FALSE(S.feasible());
  EXPECT_EQ(S.Outcome, SolveStatus::InfeasibleProven);
}

TEST(Limits, GenerousDeadlineStaysOptimal) {
  // A wall-clock budget that is not hit must not perturb the result or
  // its label (the deadline is checked, never acted on).
  LpProblem P = knapsackForSeed(3);
  SolverConfig Cfg;
  Cfg.TimeLimitMs = 60 * 1000;
  MipSolution S = solveMip(P, Cfg);
  EXPECT_EQ(S.Outcome, SolveStatus::Optimal);
  EXPECT_NEAR(S.Objective, bruteForceOptimum(P), 1e-6);
}

TEST(Limits, StatusNamesRoundTrip) {
  for (SolveStatus S :
       {SolveStatus::Optimal, SolveStatus::FeasibleLimit,
        SolveStatus::InfeasibleProven, SolveStatus::Aborted}) {
    SolveStatus Back;
    ASSERT_TRUE(solveStatusFromName(solveStatusName(S), Back));
    EXPECT_EQ(Back, S);
  }
  SolveStatus Out;
  EXPECT_FALSE(solveStatusFromName("unknown", Out));
}

TEST(Limits, DegradedResultIsLabelledInReportsAndKeptOutOfTheCache) {
  JobResult R = makeResult(256);
  R.SolveOutcome = SolveStatus::FeasibleLimit;

  // The report dialect round-trips the label...
  JsonWriter W(/*Pretty=*/false);
  writeJobResult(W, R);
  EXPECT_NE(W.str().find("\"solve_status\":\"feasible-limit\""),
            std::string::npos);
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(W.str(), V, &Error)) << Error;
  JobResult Back;
  ASSERT_TRUE(parseJobResult(V, Back, &Error)) << Error;
  EXPECT_EQ(Back.SolveOutcome, SolveStatus::FeasibleLimit);

  // ...an optimal result serializes without it (today's exact bytes)...
  JsonWriter W2(/*Pretty=*/false);
  writeJobResult(W2, makeResult(256));
  EXPECT_EQ(W2.str().find("solve_status"), std::string::npos);

  // ...and the persistent cache refuses to serve it: a later unlimited
  // run must recompute the true optimum.
  std::string Dir = freshDir("degraded-cache");
  CacheStore Store;
  ASSERT_TRUE(Store.open(Dir));
  Store.cache().insert(R.Spec.cacheKey(), R);
  ASSERT_TRUE(Store.save(&Error)) << Error;
  CacheStore Reload;
  ASSERT_TRUE(Reload.open(Dir));
  EXPECT_EQ(Reload.loadedEntries(), 0u);
}

//===----------------------------------------------------------------------===//
// Campaign-level faults
//===----------------------------------------------------------------------===//

TEST_F(FaultTestGuard, InjectedJobAbortsFailCleanlyAndAreJournaled) {
  GridSpec Grid;
  Grid.Benchmarks = {"crc32"};
  Grid.Levels = {OptLevel::O1};
  Grid.RsparePoints = {256, 512};
  Grid.Kind = JobKind::ModelOnly;

  FaultInjector F;
  F.arm("job.abort", 1.0);
  F.install();
  CampaignOptions Opts;
  std::vector<JobResult> Journaled;
  Opts.Journal = [&](const JobResult &R) { Journaled.push_back(R); };
  CampaignResult CR = runCampaign(Grid, Opts);
  FaultInjector::uninstall();

  EXPECT_EQ(CR.Summary.Failed, 2u);
  EXPECT_EQ(CR.Summary.Succeeded, 0u);
  ASSERT_EQ(Journaled.size(), 2u);
  for (const JobResult &R : CR.Results) {
    EXPECT_FALSE(R.ok());
    EXPECT_NE(R.Error.find("job.abort"), std::string::npos);
  }
}

TEST_F(FaultTestGuard, ForcedColdRebuildIsResultNeutral) {
  // solver.degrade discards usable warm state, forcing cold rebuilds;
  // warm and cold solves are both exact, so the report must not move.
  GridSpec Grid;
  Grid.Benchmarks = {"crc32"};
  Grid.Levels = {OptLevel::O1};
  Grid.RsparePoints = {128, 256, 512};
  Grid.Kind = JobKind::ModelOnly;

  CampaignResult Clean = runCampaign(Grid, CampaignOptions{});

  FaultInjector F;
  F.arm("solver.degrade", 1.0);
  F.install();
  CampaignResult Faulted = runCampaign(Grid, CampaignOptions{});
  FaultInjector::uninstall();

  EXPECT_EQ(campaignToJson(Clean), campaignToJson(Faulted));
}
