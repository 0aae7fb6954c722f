//===- tests/CampaignTest.cpp - campaign engine ----------------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "beebs/Beebs.h"
#include "campaign/Campaign.h"
#include "campaign/Report.h"
#include "core/IlpModel.h"
#include "power/DeviceRegistry.h"
#include "sim/ProfileCache.h"
#include "support/FaultInjector.h"
#include "support/Json.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

using namespace ramloc;

namespace {

/// A small but non-trivial measurement grid: 2 benchmarks x 2 devices x
/// 2 Rspare points at O1 with a short repeat, cheap enough for CI.
GridSpec smallMeasureGrid() {
  GridSpec Grid;
  Grid.Benchmarks = {"crc32", "int_matmult"};
  Grid.Levels = {OptLevel::O1};
  Grid.Devices = {"stm32f100", "stm32l-lp"};
  Grid.RsparePoints = {256, 512};
  Grid.Repeat = 2;
  return Grid;
}

/// A campaign run with its own metrics registry attached, so a test
/// reads that run's campaign.* effort counters.
struct CountedRun {
  MetricsRegistry Reg;
  CampaignResult CR;
  /// The searches the solver ran (growth of the global mip.solves).
  uint64_t MipSolves = 0;

  CountedRun(const std::vector<JobSpec> &Jobs, CampaignOptions Opts = {}) {
    Opts.Metrics = &Reg;
    uint64_t Before = globalMetrics().counterValue("mip.solves");
    CR = runCampaign(Jobs, Opts);
    MipSolves = globalMetrics().counterValue("mip.solves") - Before;
  }
  CountedRun(const GridSpec &Grid, CampaignOptions Opts = {})
      : CountedRun(Grid.expand(), std::move(Opts)) {}
  uint64_t operator[](const std::string &Counter) const {
    return Reg.counterValue(Counter);
  }
};

} // namespace

TEST(Campaign, GridExpansionOrderAndCount) {
  GridSpec Grid;
  Grid.Benchmarks = {"crc32", "sha"};
  Grid.Levels = {OptLevel::O1, OptLevel::O2};
  Grid.Devices = {"stm32f100"};
  Grid.RsparePoints = {128, 512};
  Grid.XlimitPoints = {1.5};
  Grid.FreqModes = {FreqMode::Static, FreqMode::Profiled};
  std::vector<JobSpec> Jobs = Grid.expand();
  ASSERT_EQ(Jobs.size(), Grid.jobCount());
  ASSERT_EQ(Jobs.size(), 16u);
  // Benchmark-major order; frequency mode is the innermost axis.
  EXPECT_EQ(Jobs[0].Benchmark, "crc32");
  EXPECT_EQ(Jobs[0].Freq, FreqMode::Static);
  EXPECT_EQ(Jobs[1].Freq, FreqMode::Profiled);
  EXPECT_EQ(Jobs[1].RspareBytes, 128u);
  EXPECT_EQ(Jobs[2].RspareBytes, 512u);
  EXPECT_EQ(Jobs[8].Benchmark, "sha");
  // Every job has a distinct cache key.
  std::set<std::string> Keys;
  for (const JobSpec &J : Jobs)
    Keys.insert(J.cacheKey());
  EXPECT_EQ(Keys.size(), Jobs.size());
}

TEST(Campaign, CacheKeyCapturesEveryAxis) {
  JobSpec A;
  A.Benchmark = "crc32";
  JobSpec B = A;
  EXPECT_EQ(A.cacheKey(), B.cacheKey());
  EXPECT_EQ(A.configHash(), B.configHash());
  B.RspareBytes = 1024;
  EXPECT_NE(A.cacheKey(), B.cacheKey());
  B = A;
  B.Xlimit = 1.25;
  EXPECT_NE(A.cacheKey(), B.cacheKey());
  B = A;
  B.Freq = FreqMode::Profiled;
  EXPECT_NE(A.cacheKey(), B.cacheKey());
  B = A;
  B.Kind = JobKind::ModelOnly;
  EXPECT_NE(A.cacheKey(), B.cacheKey());
  B = A;
  B.Device = "stm32l-lp";
  EXPECT_NE(A.cacheKey(), B.cacheKey());
}

TEST(Campaign, DuplicateJobsHitTheCache) {
  JobSpec Spec;
  Spec.Benchmark = "crc32";
  Spec.Level = OptLevel::O1;
  Spec.Repeat = 2;
  std::vector<JobSpec> Jobs = {Spec, Spec, Spec};
  CampaignResult CR = runCampaign(Jobs);
  ASSERT_EQ(CR.Results.size(), 3u);
  EXPECT_EQ(CR.Summary.UniqueRuns, 1u);
  EXPECT_EQ(CR.Summary.CacheHits, 2u);
  EXPECT_FALSE(CR.Results[0].CacheHit);
  EXPECT_TRUE(CR.Results[1].CacheHit);
  EXPECT_TRUE(CR.Results[2].CacheHit);
  // Duplicates carry the same numbers as the run they were copied from.
  EXPECT_EQ(CR.Results[1].OptEnergyMilliJoules,
            CR.Results[0].OptEnergyMilliJoules);
  EXPECT_EQ(CR.Results[2].BaseCycles, CR.Results[0].BaseCycles);
}

TEST(Campaign, NoCacheRunsEveryJob) {
  JobSpec Spec;
  Spec.Benchmark = "crc32";
  Spec.Level = OptLevel::O1;
  Spec.Repeat = 2;
  CampaignOptions Opts;
  Opts.UseCache = false;
  CampaignResult CR = runCampaign({Spec, Spec}, Opts);
  EXPECT_EQ(CR.Summary.UniqueRuns, 2u);
  EXPECT_EQ(CR.Summary.CacheHits, 0u);
}

TEST(Campaign, SharedCachePersistsAcrossCampaigns) {
  GridSpec Grid;
  Grid.Benchmarks = {"crc32"};
  Grid.Levels = {OptLevel::O1};
  Grid.Repeat = 2;
  Grid.RsparePoints = {256, 512};
  ResultCache Cache;
  CampaignOptions Opts;
  Opts.Cache = &Cache;
  CampaignResult First = runCampaign(Grid, Opts);
  EXPECT_EQ(First.Summary.UniqueRuns, 2u);
  EXPECT_EQ(Cache.size(), 2u);
  CampaignResult Second = runCampaign(Grid, Opts);
  EXPECT_EQ(Second.Summary.UniqueRuns, 0u);
  EXPECT_EQ(Second.Summary.CacheHits, 2u);
  EXPECT_EQ(Second.Results[0].OptEnergyMilliJoules,
            First.Results[0].OptEnergyMilliJoules);
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  GridSpec Grid = smallMeasureGrid();
  CampaignOptions Serial;
  Serial.Jobs = 1;
  CampaignOptions Parallel;
  Parallel.Jobs = 8;
  CampaignResult A = runCampaign(Grid, Serial);
  CampaignResult B = runCampaign(Grid, Parallel);
  ASSERT_EQ(A.Results.size(), B.Results.size());
  EXPECT_EQ(A.Summary.Failed, 0u);
  // The acceptance bar: serialized reports are byte-identical.
  EXPECT_EQ(campaignToJson(A), campaignToJson(B));
  EXPECT_EQ(campaignToCsv(A), campaignToCsv(B));
}

TEST(Campaign, JsonReportParsesAndMatchesResults) {
  GridSpec Grid = smallMeasureGrid();
  CampaignOptions Opts;
  Opts.Jobs = 4;
  CampaignResult CR = runCampaign(Grid, Opts);
  ASSERT_EQ(CR.Summary.Failed, 0u);

  std::string Doc = campaignToJson(CR);
  JsonValue V;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(Doc, V, &Error)) << Error;
  EXPECT_EQ(V.find("schema")->string(), "ramloc-campaign-v2");

  const JsonValue *Summary = V.find("summary");
  ASSERT_NE(Summary, nullptr);
  EXPECT_EQ(Summary->find("total")->number(), CR.Summary.Total);
  EXPECT_EQ(Summary->find("succeeded")->number(), CR.Summary.Succeeded);

  const JsonValue *JobsArr = V.find("jobs");
  ASSERT_NE(JobsArr, nullptr);
  ASSERT_EQ(JobsArr->items().size(), CR.Results.size());
  for (size_t I = 0; I != CR.Results.size(); ++I) {
    const JsonValue &J = JobsArr->items()[I];
    const JobResult &R = CR.Results[I];
    EXPECT_EQ(J.find("benchmark")->string(), R.Spec.Benchmark);
    EXPECT_EQ(J.find("device")->string(), R.Spec.Device);
    EXPECT_TRUE(J.find("ok")->boolean());
    // Numbers survive serialization exactly.
    EXPECT_EQ(J.find("opt")->find("energy_mj")->number(),
              R.OptEnergyMilliJoules);
    EXPECT_EQ(J.find("delta")->find("energy_pct")->number(),
              R.energyPct());
  }

  // The optimization's headline shape holds across the grid: measured
  // energy drops on every job of this grid.
  for (const JobResult &R : CR.Results)
    EXPECT_LT(R.OptEnergyMilliJoules, R.BaseEnergyMilliJoules)
        << R.Spec.cacheKey();
}

TEST(Campaign, CsvHasHeaderPlusOneRowPerJob) {
  GridSpec Grid;
  Grid.Benchmarks = {"crc32"};
  Grid.Levels = {OptLevel::O1};
  Grid.Repeat = 2;
  CampaignResult CR = runCampaign(Grid);
  std::string Csv = campaignToCsv(CR);
  size_t Lines = 0;
  for (char C : Csv)
    Lines += C == '\n';
  EXPECT_EQ(Lines, 1 + CR.Results.size());
  EXPECT_EQ(Csv.rfind("benchmark,level,", 0), 0u);
}

TEST(Campaign, ModelOnlyJobsSkipMeasurementButFillModel) {
  GridSpec Grid;
  Grid.Benchmarks = {"int_matmult"};
  Grid.Repeat = 2;
  Grid.RsparePoints = {0, 256};
  Grid.Kind = JobKind::ModelOnly;
  CampaignResult CR = runCampaign(Grid);
  ASSERT_EQ(CR.Summary.Failed, 0u);
  for (const JobResult &R : CR.Results) {
    EXPECT_EQ(R.BaseCycles, 0u); // no simulation happened
    EXPECT_GT(R.PredictedBaseCycles, 0.0);
    EXPECT_LE(R.RamBytes, R.Spec.RspareBytes);
  }
  // Rspare = 0 pins everything to flash; 256 B finds savings.
  EXPECT_EQ(CR.Results[0].MovedBlocks, 0u);
  EXPECT_GT(CR.Results[1].MovedBlocks, 0u);
  EXPECT_LT(CR.Results[1].PredictedOptEnergyMilliJoules,
            CR.Results[0].PredictedOptEnergyMilliJoules);
}

TEST(Campaign, BadAxisValuesFailTheJobNotTheCampaign) {
  JobSpec Bad;
  Bad.Benchmark = "no_such_benchmark";
  JobSpec BadDev;
  BadDev.Benchmark = "crc32";
  BadDev.Level = OptLevel::O1;
  BadDev.Repeat = 2;
  BadDev.Device = "no_such_device";
  JobSpec Good = BadDev;
  Good.Device = "stm32f100";
  CampaignResult CR = runCampaign({Bad, BadDev, Good});
  EXPECT_EQ(CR.Summary.Failed, 2u);
  EXPECT_EQ(CR.Summary.Succeeded, 1u);
  EXPECT_NE(CR.Results[0].Error.find("unknown benchmark"),
            std::string::npos);
  EXPECT_NE(CR.Results[1].Error.find("unknown device"), std::string::npos);
  EXPECT_TRUE(CR.Results[2].ok());
  // Failed jobs still serialize cleanly.
  JsonValue V;
  ASSERT_TRUE(JsonValue::parse(campaignToJson(CR), V));
  EXPECT_FALSE(V.find("jobs")->items()[0].find("ok")->boolean());
}

TEST(Campaign, ProgressReportsEveryUniqueRun) {
  GridSpec Grid;
  Grid.Benchmarks = {"crc32", "int_matmult"};
  Grid.Levels = {OptLevel::O1};
  Grid.Repeat = 2;
  CampaignOptions Opts;
  Opts.Jobs = 4;
  unsigned Calls = 0, LastDone = 0;
  Opts.Progress = [&](const JobResult &, unsigned Done, unsigned Total) {
    ++Calls;
    LastDone = Done;
    EXPECT_EQ(Total, 2u);
  };
  runCampaign(Grid, Opts);
  EXPECT_EQ(Calls, 2u);
  EXPECT_EQ(LastDone, 2u);
}

TEST(Campaign, MeasurementsMatchDirectPipelineRun) {
  // The engine is a scheduler, not a different methodology: a campaign
  // job must reproduce exactly what a hand-rolled optimizeModule gives.
  JobSpec Spec;
  Spec.Benchmark = "int_matmult";
  Spec.Level = OptLevel::O2;
  Spec.Repeat = 3;
  Spec.RspareBytes = 1024;
  JobResult R = runJob(Spec);
  ASSERT_TRUE(R.ok()) << R.Error;

  Module M = buildBeebs("int_matmult", OptLevel::O2, 3);
  PipelineOptions PO;
  PO.Knobs.RspareBytes = 1024;
  PO.Knobs.Xlimit = 1.5;
  PipelineResult PR = optimizeModule(M, PO);
  ASSERT_TRUE(PR.ok()) << PR.Error;

  EXPECT_EQ(R.BaseCycles, PR.MeasuredBase.Stats.Cycles);
  EXPECT_EQ(R.OptCycles, PR.MeasuredOpt.Stats.Cycles);
  EXPECT_EQ(R.BaseEnergyMilliJoules, PR.MeasuredBase.Energy.MilliJoules);
  EXPECT_EQ(R.OptEnergyMilliJoules, PR.MeasuredOpt.Energy.MilliJoules);
  EXPECT_EQ(R.MovedBlocks, PR.MovedBlocks.size());
}

TEST(Campaign, Figure5GridRunsEveryBenchmarkCleanly) {
  // The Figure 5 measurement grid at the suite's default repeat: every
  // BEEBS benchmark at O2 and Os under both frequency sources.
  GridSpec Grid;
  Grid.Benchmarks = beebsNames();
  Grid.Levels = {OptLevel::O2, OptLevel::Os};
  Grid.FreqModes = {FreqMode::Static, FreqMode::Profiled};
  Grid.RsparePoints = {512};
  CampaignResult CR = runCampaign(Grid);
  EXPECT_EQ(CR.Summary.Total, 4 * beebsNames().size());
  EXPECT_EQ(CR.Summary.Failed, 0u);
  for (const JobResult &R : CR.Results)
    EXPECT_TRUE(R.ok()) << R.Spec.Benchmark << ": " << R.Error;
}

TEST(DeviceRegistry, NamesAreUniqueAndResolvable) {
  std::set<std::string> Seen;
  for (const DeviceInfo &D : deviceRegistry()) {
    EXPECT_TRUE(Seen.insert(D.Name).second) << D.Name;
    const DeviceInfo *Found = findDevice(D.Name);
    ASSERT_NE(Found, nullptr);
    EXPECT_EQ(Found->Name, D.Name);
  }
  EXPECT_GE(deviceRegistry().size(), 3u);
  EXPECT_EQ(deviceRegistry()[0].Name, "stm32f100");
  EXPECT_EQ(findDevice("no_such_device"), nullptr);
  EXPECT_EQ(deviceNames().size(), deviceRegistry().size());
}

TEST(Campaign, CacheProvenanceDoesNotChangeReportBytes) {
  // The acceptance bar for the persistent cache: a report must be
  // byte-identical whether its numbers were computed or served from a
  // cache, so serialized reports carry no cache provenance.
  GridSpec Grid;
  Grid.Benchmarks = {"crc32"};
  Grid.Levels = {OptLevel::O1};
  Grid.Repeat = 2;
  Grid.RsparePoints = {256, 512};
  CampaignResult Cold = runCampaign(Grid);

  ResultCache Cache;
  CampaignOptions Opts;
  Opts.Cache = &Cache;
  runCampaign(Grid, Opts); // populate
  CampaignResult Warm = runCampaign(Grid, Opts);
  EXPECT_EQ(Warm.Summary.UniqueRuns, 0u);
  EXPECT_EQ(Warm.Summary.CacheHits, 2u);
  EXPECT_EQ(campaignToJson(Cold), campaignToJson(Warm));
  EXPECT_EQ(campaignToCsv(Cold), campaignToCsv(Warm));
}

TEST(Campaign, ShardRangesAreDisjointAndExhaustive) {
  for (size_t Total : {size_t(0), size_t(1), size_t(5), size_t(7),
                       size_t(16), size_t(100)}) {
    for (unsigned N : {1u, 2u, 3u, 5u, 8u, 120u}) {
      size_t PrevEnd = 0;
      for (unsigned K = 1; K <= N; ++K) {
        auto [Begin, End] = shardRange(Total, K, N);
        // Contiguous with the previous shard: disjoint and, by the final
        // check below, exhaustive.
        EXPECT_EQ(Begin, PrevEnd) << Total << " " << K << "/" << N;
        EXPECT_LE(Begin, End);
        // Balanced to within one job.
        EXPECT_LE(End - Begin, Total / N + 1);
        PrevEnd = End;
      }
      EXPECT_EQ(PrevEnd, Total) << Total << " shards=" << N;
    }
  }
  // Out-of-range shard indices are empty, not wrapping.
  EXPECT_EQ(shardRange(10, 0, 3).second, 0u);
  EXPECT_EQ(shardRange(10, 4, 3).second, shardRange(10, 4, 3).first);
}

TEST(Campaign, ShardedRunsMergeToUnshardedBytes) {
  GridSpec Grid = smallMeasureGrid();
  std::vector<JobSpec> Jobs = Grid.expand();
  CampaignResult Full = runCampaign(Jobs);
  std::string FullJson = campaignToJson(Full);
  std::string FullCsv = campaignToCsv(Full);

  std::vector<std::string> Docs;
  for (unsigned K = 1; K <= 3; ++K) {
    auto [Begin, End] = shardRange(Jobs.size(), K, 3);
    std::vector<JobSpec> Slice(Jobs.begin() + Begin, Jobs.begin() + End);
    Docs.push_back(campaignToJson(runCampaign(Slice)));
  }

  CampaignResult Merged;
  std::string Error;
  ASSERT_TRUE(mergeCampaignReports(Docs, Merged, &Error)) << Error;
  EXPECT_EQ(campaignToJson(Merged), FullJson);
  EXPECT_EQ(campaignToCsv(Merged), FullCsv);
}

TEST(Campaign, ReportParsesBackAndReserializesIdentically) {
  // Round-trip including a failed job: parse recomputes the summary and
  // reserializes to the same bytes.
  JobSpec Good;
  Good.Benchmark = "crc32";
  Good.Level = OptLevel::O1;
  Good.Repeat = 2;
  JobSpec Bad;
  Bad.Benchmark = "no_such_benchmark";
  JobSpec ModelOnly = Good;
  ModelOnly.Kind = JobKind::ModelOnly;
  CampaignResult CR = runCampaign({Good, Bad, ModelOnly});
  std::string Doc = campaignToJson(CR);

  CampaignResult Parsed;
  std::string Error;
  ASSERT_TRUE(parseCampaignReport(Doc, Parsed, &Error)) << Error;
  ASSERT_EQ(Parsed.Results.size(), 3u);
  EXPECT_FALSE(Parsed.Results[1].ok());
  EXPECT_EQ(Parsed.Results[0].OptEnergyMilliJoules,
            CR.Results[0].OptEnergyMilliJoules);
  EXPECT_EQ(Parsed.Results[0].BaseCycles, CR.Results[0].BaseCycles);
  EXPECT_EQ(Parsed.Results[2].Spec.Kind, JobKind::ModelOnly);
  EXPECT_EQ(campaignToJson(Parsed), Doc);
}

TEST(DeviceRegistry, VariantsDifferFromReference) {
  const PowerModel &Ref = findDevice("stm32f100")->Model;
  const PowerModel &LotB = findDevice("stm32f100-lotB")->Model;
  EXPECT_NE(Ref.MilliWatts[0][0], LotB.MilliWatts[0][0]);
  // Registry construction is deterministic: a second lookup sees the
  // same perturbed values.
  EXPECT_EQ(LotB.MilliWatts[0][0],
            findDevice("stm32f100-lotB")->Model.MilliWatts[0][0]);
  const PowerModel &LP = findDevice("stm32l-lp")->Model;
  EXPECT_LT(LP.MilliWatts[0][0], Ref.MilliWatts[0][0]);
  EXPECT_LT(LP.SleepMilliWatts, Ref.SleepMilliWatts);
}

TEST(DeviceRegistry, ProcessCornersScaleSystematically) {
  const PowerModel &Ref = findDevice("stm32f100")->Model;
  const PowerModel &Fast = findDevice("stm32f100-fastcorner")->Model;
  const PowerModel &Slow = findDevice("stm32f100-slowcorner")->Model;
  for (unsigned F = 0; F != 2; ++F)
    for (unsigned C = 0; C != 7; ++C) {
      EXPECT_NEAR(Fast.MilliWatts[F][C], Ref.MilliWatts[F][C] * 0.90,
                  1e-12);
      EXPECT_NEAR(Slow.MilliWatts[F][C], Ref.MilliWatts[F][C] * 1.12,
                  1e-12);
    }
  EXPECT_EQ(findDevice("stm32f100-fastcorner")->Timing.FlashWaitStates,
            0u);
  EXPECT_EQ(findDevice("stm32f100-slowcorner")->Timing.FlashWaitStates,
            1u);
  EXPECT_EQ(findDevice("stm32f103-72mhz")->Timing.FlashWaitStates, 2u);
}

TEST(Campaign, DeviceAxisIsOneSimulationPlusRecosts) {
  // The simulate-once/cost-many acceptance bar: a device-axis-heavy grid
  // (1 benchmark x all registry devices) performs exactly one full
  // simulation — every other device derives its numbers by recosting the
  // shared profile — and the report is byte-identical to the
  // all-simulated run. A recost visits each static instruction once while
  // the simulation it replaces steps every dynamic one, so the profile's
  // dynamic/static ratio is the work one recosted config saves.
  GridSpec Grid;
  Grid.Benchmarks = {"crc32"};
  Grid.Levels = {OptLevel::O1};
  Grid.Repeat = 2;
  Grid.Devices = deviceNames();
  Grid.Kind = JobKind::ModelOnly;
  Grid.FreqModes = {FreqMode::Profiled}; // one baseline simulation per job
  ASSERT_GE(Grid.Devices.size(), 9u);

  ProfileCache Profiles;
  CampaignOptions Reuse;
  Reuse.Jobs = 4;
  Reuse.Profiles = &Profiles;
  CountedRun WithReuse(Grid, Reuse);
  ASSERT_EQ(WithReuse.CR.Summary.Failed, 0u);
  EXPECT_EQ(WithReuse["campaign.sim.full_sims"], 1u);
  EXPECT_EQ(WithReuse["campaign.sim.recosts"], Grid.Devices.size() - 1);
  auto Recosted = profileSnapshot(Profiles);
  ASSERT_EQ(Recosted.size(), 1u);
  const ExecutionProfile &P = *Recosted.front().second;
  EXPECT_GE(P.Instructions, 5 * P.Instrs.size())
      << P.Instructions << " dynamic vs " << P.Instrs.size()
      << " static instructions";

  CampaignOptions NoReuse;
  NoReuse.Jobs = 4;
  NoReuse.ReuseProfiles = false;
  // The campaign alone decides the jobs' cache: a template that points
  // at a warm one does not bring reuse back.
  NoReuse.Base.Profiles = &Profiles;
  CountedRun AllSimulated(Grid, NoReuse);
  // Without a cache every job simulates its own baseline, and the
  // registry counts each of those runs.
  EXPECT_EQ(AllSimulated["campaign.sim.full_sims"], Grid.Devices.size());
  EXPECT_EQ(AllSimulated["campaign.sim.recosts"], 0u);
  EXPECT_EQ(campaignToJson(WithReuse.CR), campaignToJson(AllSimulated.CR));
  EXPECT_EQ(campaignToCsv(WithReuse.CR), campaignToCsv(AllSimulated.CR));
}

TEST(Campaign, MeasureGridReportsUnchangedByProfileReuse) {
  // Measure jobs make two measurements each (baseline + optimized). With
  // profile reuse the device axis shares the baseline's one simulation,
  // and every optimized profile is derived from it, not simulated; the
  // report bytes must not move.
  GridSpec Grid;
  Grid.Benchmarks = {"crc32"};
  Grid.Levels = {OptLevel::O1};
  Grid.Repeat = 2;
  Grid.Devices = deviceNames();

  CampaignOptions Reuse;
  Reuse.Jobs = 4;
  CountedRun WithReuse(Grid, Reuse);
  ASSERT_EQ(WithReuse.CR.Summary.Failed, 0u);
  // Every measurement was satisfied, all but the first by recost.
  EXPECT_EQ(WithReuse["campaign.sim.full_sims"] +
                WithReuse["campaign.sim.recosts"],
            2 * Grid.Devices.size());
  EXPECT_EQ(WithReuse["campaign.sim.full_sims"], 1u);

  CampaignOptions NoReuse;
  NoReuse.Jobs = 4;
  NoReuse.ReuseProfiles = false;
  CountedRun AllSimulated(Grid, NoReuse);
  // Without reuse both measurements of every job are full simulations.
  EXPECT_EQ(AllSimulated["campaign.sim.full_sims"], 2 * Grid.Devices.size());
  EXPECT_EQ(AllSimulated["campaign.sim.recosts"], 0u);
  EXPECT_EQ(campaignToJson(WithReuse.CR), campaignToJson(AllSimulated.CR));
  EXPECT_EQ(campaignToCsv(WithReuse.CR), campaignToCsv(AllSimulated.CR));
}

TEST(Campaign, ExternalProfileCacheSpansCampaigns) {
  // A later campaign over new devices recosts executions an earlier
  // campaign already simulated, when both share a ProfileCache.
  GridSpec Grid;
  Grid.Benchmarks = {"crc32"};
  Grid.Levels = {OptLevel::O1};
  Grid.Repeat = 2;
  Grid.Devices = {"stm32f100"};
  Grid.Kind = JobKind::ModelOnly;
  Grid.FreqModes = {FreqMode::Profiled};

  ProfileCache Profiles;
  CampaignOptions Opts;
  Opts.Profiles = &Profiles;
  CountedRun First(Grid, Opts);
  ASSERT_EQ(First.CR.Summary.Failed, 0u);
  EXPECT_EQ(First["campaign.sim.full_sims"], 1u);

  Grid.Devices = {"stm32f100-2ws", "stm32f103-72mhz"};
  CountedRun Second(Grid, Opts);
  ASSERT_EQ(Second.CR.Summary.Failed, 0u);
  EXPECT_EQ(Second["campaign.sim.full_sims"], 0u);
  EXPECT_EQ(Second["campaign.sim.recosts"], 2u);
}

TEST(DeviceRegistry, FlashWaitStatesSlowFlashAndWidenTheGap) {
  JobSpec Ref;
  Ref.Benchmark = "crc32";
  Ref.Level = OptLevel::O1;
  Ref.Repeat = 2;
  JobSpec Waited = Ref;
  Waited.Device = "stm32f100-2ws";

  JobResult A = runJob(Ref);
  JobResult B = runJob(Waited);
  ASSERT_TRUE(A.ok()) << A.Error;
  ASSERT_TRUE(B.ok()) << B.Error;

  // Wait states add cycles to every flash fetch: the all-flash baseline
  // must be strictly slower on the wait-stated part.
  EXPECT_GT(B.BaseCycles, A.BaseCycles);
  // The optimization still wins there — RAM residence now saves time as
  // well as power, so the flash/RAM gap only widens.
  EXPECT_LT(B.OptEnergyMilliJoules, B.BaseEnergyMilliJoules);
  // And the optimized binary escapes part of the wait-state tax: its
  // cycle inflation relative to the reference part is smaller than the
  // baseline's.
  double BaseInflation = static_cast<double>(B.BaseCycles) / A.BaseCycles;
  double OptInflation = static_cast<double>(B.OptCycles) / A.OptCycles;
  EXPECT_LT(OptInflation, BaseInflation);
}

TEST(Campaign, SolveGroupKeyDropsOnlyTheKnobAxes) {
  JobSpec A;
  A.Benchmark = "crc32";
  A.RspareBytes = 256;
  A.Xlimit = 1.2;
  JobSpec B = A;
  B.RspareBytes = 1024;
  B.Xlimit = 1.8;
  EXPECT_EQ(A.solveGroupKey(), B.solveGroupKey());
  EXPECT_NE(A.cacheKey(), B.cacheKey());
  JobSpec C = A;
  C.Device = "stm32l-lp";
  EXPECT_NE(A.solveGroupKey(), C.solveGroupKey());
  JobSpec D = A;
  D.Kind = JobKind::ModelOnly;
  EXPECT_NE(A.solveGroupKey(), D.solveGroupKey());
}

TEST(Campaign, KnobAxisIsOneExtractionOneColdSolve) {
  // The PR-4 acceptance grid: 1 benchmark x 1 device x {3 Xlimit} x
  // {3 Rspare} must perform exactly 1 extraction + 1 cold solve, with
  // the remaining 8 knob points warm-started — whatever the worker
  // count, since the whole group runs as one task.
  GridSpec Grid;
  Grid.Benchmarks = {"crc32"};
  Grid.Levels = {OptLevel::O1};
  Grid.Repeat = 2;
  Grid.RsparePoints = {256, 512, 1024};
  Grid.XlimitPoints = {1.1, 1.5, 2.0};

  CampaignOptions Opts;
  Opts.Jobs = 4;
  CountedRun Run(Grid, Opts);
  ASSERT_EQ(Run.CR.Summary.Failed, 0u);
  EXPECT_EQ(Run["campaign.solve.extractions"], 1u);
  EXPECT_EQ(Run["campaign.solve.cold"], 1u);
  EXPECT_EQ(Run["campaign.solve.warm"], 8u);
  // One campaign records exactly one wall-clock sample.
  EXPECT_EQ(Run.Reg.histogram("campaign.wall_seconds").stats().Count, 1u);
}

TEST(Campaign, KnobGridReportsUnchangedBySolveReuse) {
  // Warm and cold solvers are both exact, so a knob grid's report must
  // be byte-identical with solve reuse on or off (the `--reuse` without
  // `solve` escape hatch).
  GridSpec Grid;
  Grid.Benchmarks = {"crc32", "int_matmult"};
  Grid.Levels = {OptLevel::O1};
  Grid.Repeat = 2;
  Grid.RsparePoints = {256, 1024};
  Grid.XlimitPoints = {1.1, 1.8};

  CampaignOptions Reuse;
  Reuse.Jobs = 4;
  CountedRun WithReuse(Grid, Reuse);
  ASSERT_EQ(WithReuse.CR.Summary.Failed, 0u);
  EXPECT_GT(WithReuse["campaign.solve.warm"], 0u);

  CampaignOptions Cold;
  Cold.Jobs = 4;
  Cold.Base.Solver.WarmNodes = false;
  CountedRun AllCold(Grid, Cold);
  ASSERT_EQ(AllCold.CR.Summary.Failed, 0u);
  EXPECT_EQ(AllCold["campaign.solve.warm"], 0u);
  EXPECT_EQ(AllCold["campaign.solve.cold"], Grid.jobCount());
  EXPECT_EQ(AllCold["campaign.solve.extractions"], Grid.jobCount());

  EXPECT_EQ(campaignToJson(WithReuse.CR), campaignToJson(AllCold.CR));
  EXPECT_EQ(campaignToCsv(WithReuse.CR), campaignToCsv(AllCold.CR));
}

TEST(Campaign, ModelOnlyKnobGridGroupsToo) {
  GridSpec Grid;
  Grid.Benchmarks = {"crc32"};
  Grid.Levels = {OptLevel::O1};
  Grid.Repeat = 2;
  Grid.RsparePoints = {128, 512};
  Grid.XlimitPoints = {1.1, 1.6};
  Grid.Kind = JobKind::ModelOnly;

  CountedRun Run(Grid);
  ASSERT_EQ(Run.CR.Summary.Failed, 0u);
  EXPECT_EQ(Run["campaign.solve.extractions"], 1u);
  EXPECT_EQ(Run["campaign.solve.cold"], 1u);
  EXPECT_EQ(Run["campaign.solve.warm"], 3u);
  // ModelOnly with static frequencies never simulates.
  EXPECT_EQ(Run["campaign.sim.full_sims"] + Run["campaign.sim.recosts"], 0u);

  CampaignOptions Cold;
  Cold.Base.Solver.WarmNodes = false;
  CampaignResult AllCold = runCampaign(Grid, Cold);
  EXPECT_EQ(campaignToJson(Run.CR), campaignToJson(AllCold));
}

TEST(Campaign, KnobAxisListingOrderDoesNotChangeReports) {
  // A solve group visits its knob points loosest-first whatever order
  // the axes are listed in, and every solve proves optimality, so
  // listing the axes ascending, descending or shuffled only permutes the
  // report's rows. Compared row by row, keyed by config.
  auto Rows = [](std::vector<unsigned> Rspare, std::vector<double> Xlimit,
                 JobKind Kind) {
    GridSpec Grid;
    Grid.Benchmarks = {"dijkstra", "crc32"};
    Grid.Levels = {OptLevel::O1};
    Grid.Repeat = 2;
    Grid.RsparePoints = std::move(Rspare);
    Grid.XlimitPoints = std::move(Xlimit);
    Grid.Kind = Kind;
    CampaignResult CR = runCampaign(Grid, {});
    EXPECT_EQ(CR.Summary.Failed, 0u);
    EXPECT_EQ(CR.Summary.Degraded, 0u);
    std::map<std::string, std::string> ByKey;
    for (const JobResult &R : CR.Results) {
      JsonWriter W(/*Pretty=*/false);
      writeJobResult(W, R);
      ByKey[R.Spec.cacheKey()] = W.str();
    }
    return ByKey;
  };
  for (JobKind Kind : {JobKind::ModelOnly, JobKind::Measure}) {
    SCOPED_TRACE(jobKindName(Kind));
    auto Ascending = Rows({128, 256, 512, 1024}, {1.1, 1.2, 1.5}, Kind);
    EXPECT_EQ(Ascending.size(), 24u);
    EXPECT_EQ(Rows({1024, 512, 256, 128}, {1.5, 1.2, 1.1}, Kind), Ascending);
    EXPECT_EQ(Rows({512, 128, 1024, 256}, {1.2, 1.5, 1.1}, Kind), Ascending);
  }
}

TEST(Campaign, ReportWithSolverDiagnosticsParsesAndDiffsClean) {
  // A report annotated with a "solver" effort block (a diagnostic
  // dialect extension) must parse, ignore the block, diff clean and
  // reserialize to the canonical byte stream — effort is provenance,
  // not results.
  GridSpec Grid;
  Grid.Benchmarks = {"crc32"};
  Grid.Levels = {OptLevel::O1};
  Grid.Repeat = 2;
  Grid.Kind = JobKind::ModelOnly;
  CampaignResult CR = runCampaign(Grid, {});
  ASSERT_EQ(CR.Summary.Failed, 0u);
  std::string Canonical = campaignToJson(CR);

  // Inject a solver block into every job object.
  std::string Annotated = Canonical;
  const std::string Needle = "\"model\":";
  const std::string Block =
      "\"solver\": {\"cold_solves\": 3, \"warm_solves\": 9, "
      "\"incumbent_seeds\": 1, \"primal_pivots\": 1234}, ";
  for (size_t Pos = 0; (Pos = Annotated.find(Needle, Pos)) !=
                       std::string::npos;
       Pos += Block.size() + Needle.size())
    Annotated.insert(Pos, Block);
  ASSERT_NE(Annotated, Canonical);

  CampaignResult Parsed;
  std::string Error;
  ASSERT_TRUE(parseCampaignReport(Annotated, Parsed, &Error)) << Error;
  ASSERT_EQ(Parsed.Results.size(), CR.Results.size());
  for (size_t I = 0; I != CR.Results.size(); ++I)
    EXPECT_TRUE(changedMetrics(CR.Results[I], Parsed.Results[I]).empty())
        << CR.Results[I].Spec.cacheKey();
  // Re-serialization drops the diagnostics: back to canonical bytes.
  EXPECT_EQ(campaignToJson(Parsed), Canonical);
}

namespace {

/// sha and dijkstra x O1,O2 x stm32f100 and its 48 MHz sibling x a 2x2
/// knob grid: 8 solve groups posing only 2 distinct ILPs (both
/// benchmarks build identical O1/O2 code, and the clock rate is not in
/// the model).
GridSpec sharedModelGrid(JobKind Kind) {
  GridSpec Grid;
  Grid.Benchmarks = {"sha", "dijkstra"};
  Grid.Levels = {OptLevel::O1, OptLevel::O2};
  Grid.Devices = {"stm32f100", "stm32f100-48mhz"};
  Grid.RsparePoints = {256, 512};
  Grid.XlimitPoints = {1.2, 1.5};
  Grid.Repeat = 2;
  Grid.Kind = Kind;
  return Grid;
}

std::string rowJson(const JobResult &R) {
  JsonWriter W(/*Pretty=*/false);
  writeJobResult(W, R);
  return W.str();
}

/// Each job's row from a campaign over its solve group alone, where no
/// other group can donate a solve chain.
std::map<std::string, JobResult> isolatedRows(const GridSpec &Grid) {
  std::map<std::string, std::vector<JobSpec>> Groups;
  for (const JobSpec &J : Grid.expand())
    Groups[J.solveGroupKey()].push_back(J);
  std::map<std::string, JobResult> Rows;
  for (const auto &[Key, Jobs] : Groups) {
    CountedRun Run(Jobs);
    EXPECT_EQ(Run["campaign.solve.replayed"], 0u) << Key;
    for (const JobResult &R : Run.CR.Results)
      Rows[R.Spec.cacheKey()] = R;
  }
  return Rows;
}

/// A campaign's solve counters against its rows: every group's first
/// solved point is cold and the rest warm-start from it — replayed or
/// not, since a replayed job keeps its donor's label and a group shares
/// a chain only with groups visiting the same points — and the live MIP
/// solves are cold + warm - replayed - dominated (a point settled by a
/// looser proven optimum is warm but never reaches solveMip).
void expectSolveAccounting(const CountedRun &Run) {
  std::set<std::string> Groups;
  uint64_t Solved = 0;
  for (const JobResult &R : Run.CR.Results)
    if (R.ok() && !R.CacheHit) {
      Groups.insert(R.Spec.solveGroupKey());
      ++Solved;
    }
  EXPECT_EQ(Run["campaign.solve.cold"], Groups.size());
  EXPECT_EQ(Run["campaign.solve.warm"], Solved - Groups.size());
  EXPECT_EQ(Run.MipSolves,
            Run["campaign.solve.cold"] + Run["campaign.solve.warm"] -
                Run["campaign.solve.replayed"] -
                Run["campaign.solve.dominated"]);
}

/// Checks every row of \p Run against \p Isolated and the solve
/// accounting: live MIP solves == cold + warm - replayed - dominated.
void expectMatchesIsolated(const CountedRun &Run,
                           const std::map<std::string, JobResult> &Isolated) {
  EXPECT_EQ(Run.CR.Summary.Failed, 0u);
  expectSolveAccounting(Run);
  for (const JobResult &R : Run.CR.Results) {
    auto It = Isolated.find(R.Spec.cacheKey());
    if (It == Isolated.end()) {
      ADD_FAILURE() << "no isolated row for " << R.Spec.cacheKey();
      continue;
    }
    EXPECT_EQ(rowJson(R), rowJson(It->second)) << R.Spec.cacheKey();
  }
}

} // namespace

TEST(Campaign, GroupsWithIdenticalModelsReplayOneSolveChain) {
  for (JobKind Kind : {JobKind::Measure, JobKind::ModelOnly}) {
    GridSpec Grid = sharedModelGrid(Kind);
    std::map<std::string, JobResult> Isolated = isolatedRows(Grid);
    for (unsigned Jobs : {1u, 4u}) {
      SCOPED_TRACE(std::string(jobKindName(Kind)) + " jobs " +
                   std::to_string(Jobs));
      CampaignOptions Opts;
      Opts.Jobs = Jobs;
      CountedRun Run(Grid, Opts);
      expectMatchesIsolated(Run, Isolated);
      // 8 groups x 4 points, 2 distinct chains: 8 live points, and the
      // other 6 groups replay all 24 of theirs. One live point is settled
      // by its chain's looser optimum, so 7 reach the MIP solver.
      EXPECT_EQ(Run["campaign.solve.replayed"], 24u);
      EXPECT_EQ(Run["campaign.solve.dominated"], 1u);
      EXPECT_EQ(Run.MipSolves, 7u);
      // Every group still extracts once; expectMatchesIsolated checked
      // the donor-labelled 8 cold + 24 warm solves.
      EXPECT_EQ(Run["campaign.solve.extractions"], 8u);
    }
  }
}

TEST(Campaign, SolveReuseOffSharesNoChain) {
  CampaignOptions Opts;
  Opts.Base.Solver.WarmNodes = false;
  CountedRun Run(sharedModelGrid(JobKind::ModelOnly), Opts);
  ASSERT_EQ(Run.CR.Summary.Failed, 0u);
  EXPECT_EQ(Run["campaign.solve.replayed"], 0u);
  EXPECT_EQ(Run["campaign.solve.dominated"], 0u); // every point searched cold
  EXPECT_EQ(Run["campaign.solve.cold"], 32u);
}

TEST(Campaign, DivergingChainsRematerializeAndMatchIsolatedRuns) {
  // A persistent-cache hit drops a knob point from one group's chain, so
  // that group visits other points than its twins and solves its own
  // chain. Every side must still give exactly the rows its group gives
  // alone.
  for (JobKind Kind : {JobKind::Measure, JobKind::ModelOnly}) {
    GridSpec Grid = sharedModelGrid(Kind);
    std::map<std::string, JobResult> Isolated = isolatedRows(Grid);
    // At --jobs=1 the first group in expansion order (sha O1 stm32f100)
    // owns the sha chain and sha O2 stm32f100 follows it.
    JobSpec Middle;
    Middle.Benchmark = "sha";
    Middle.Repeat = Grid.Repeat;
    Middle.Device = "stm32f100";
    Middle.RspareBytes = 256;
    Middle.Xlimit = 1.5;
    Middle.Kind = Kind;
    for (OptLevel Side : {OptLevel::O2, OptLevel::O1}) {
      Middle.Level = Side;
      for (unsigned Jobs : {1u, 4u}) {
        SCOPED_TRACE(std::string(jobKindName(Kind)) + " cached " +
                     Middle.cacheKey() + " jobs " + std::to_string(Jobs));
        ResultCache Cache;
        Cache.insert(Middle.cacheKey(), Isolated.at(Middle.cacheKey()));
        CampaignOptions Opts;
        Opts.Jobs = Jobs;
        Opts.Cache = &Cache;
        CountedRun Run(Grid, Opts);
        expectMatchesIsolated(Run, Isolated);
        EXPECT_EQ(Run.CR.Summary.CacheHits, 1u);
        if (Jobs != 1)
          continue; // which group owns a chain depends on scheduling
        // Either way the group missing the cached point solves its 3
        // points live, the first of the other three sha groups solves
        // the 4-point chain and the last two replay it (8 jobs), and
        // dijkstra's 12 replays are untouched.
        EXPECT_EQ(Run["campaign.solve.replayed"], 20u);
      }
    }
  }
}

TEST(Campaign, AbortedJobsRematerializeAndMatchIsolatedRuns) {
  // An aborted job drops a knob point from its group's chain, so that
  // group shares a chain only with groups that lost the same points.
  // Every surviving row still matches the isolated run, and the warm
  // chains are what solving every group live gives.
  GridSpec Grid = sharedModelGrid(JobKind::ModelOnly);
  std::map<std::string, JobResult> Isolated = isolatedRows(Grid);
  FaultInjector F;
  F.arm("job.abort", 0.2, 11);
  F.install();
  CountedRun Run(Grid);
  FaultInjector::uninstall();
  const CampaignResult &CR = Run.CR;
  ASSERT_GT(CR.Summary.Failed, 0u);
  ASSERT_GT(CR.Summary.Succeeded, 0u);
  expectSolveAccounting(Run);
  // Seed 11 aborts a middle point of the first sha group (it visits
  // R512 X1.5, R512 X1.2, this point, R256 X1.2, so its twins cannot
  // copy its chain) and points of several other groups.
  ASSERT_EQ(CR.Results[1].Spec.cacheKey(),
            "sha|O1|r2|stm32f100|R256|X1.5|static|model-only");
  EXPECT_FALSE(CR.Results[1].ok());
  EXPECT_LT(Run["campaign.solve.replayed"], 24u);
  for (const JobResult &R : CR.Results) {
    if (R.ok()) {
      EXPECT_EQ(rowJson(R), rowJson(Isolated.at(R.Spec.cacheKey())))
          << R.Spec.cacheKey();
    }
  }
}

namespace {

/// The ILP a solve group builds for \p Bench at \p Level on \p Device.
PlacementModel groupModel(const std::string &Bench, OptLevel Level,
                          const std::string &Device, ModelParams *MPOut) {
  const DeviceInfo *Dev = findDevice(Device);
  EXPECT_NE(Dev, nullptr) << Device;
  PipelineOptions Opts;
  Opts.Power = Dev->Model;
  Opts.Sim.Timing = Dev->Timing;
  Opts.Extract.Timing = Dev->Timing;
  Module M = buildBeebs(Bench, Level, 2);
  ExtractedModule EM = extractModule(M, Opts, /*NeedBaseline=*/false);
  EXPECT_TRUE(EM.ok()) << EM.Error;
  if (MPOut)
    *MPOut = EM.MP;
  return buildPlacementModel(EM.MP, Opts.Knobs);
}

} // namespace

TEST(Campaign, ContentKeyIdentifiesTheIlp) {
  uint64_t Sha = groupModel("sha", OptLevel::O1, "stm32f100", nullptr)
                     .contentKey();
  // The measured identical pairs: O1 == O2, and the 48 MHz sibling.
  EXPECT_EQ(Sha, groupModel("sha", OptLevel::O2, "stm32f100", nullptr)
                     .contentKey());
  EXPECT_EQ(Sha, groupModel("sha", OptLevel::O1, "stm32f100-48mhz", nullptr)
                     .contentKey());
  EXPECT_NE(Sha, groupModel("dijkstra", OptLevel::O1, "stm32f100", nullptr)
                     .contentKey());
  EXPECT_NE(Sha, groupModel("sha", OptLevel::O1, "stm32f100-2ws", nullptr)
                     .contentKey());

  ModelParams MP;
  const PlacementModel PM = groupModel("sha", OptLevel::O1, "stm32f100", &MP);
  ASSERT_EQ(PM.contentKey(), Sha);
  ASSERT_GE(PM.RamConstraint, 0);
  PlacementModel Coef = PM;
  Coef.P.Constraints[static_cast<unsigned>(PM.RamConstraint)]
      .Terms[0]
      .second += 1.0;
  EXPECT_NE(Coef.contentKey(), Sha);
  PlacementModel Objective = PM;
  Objective.P.Variables[0].Objective *= 1.0 + 1e-12;
  EXPECT_NE(Objective.contentKey(), Sha);
  PlacementModel Rhs = PM;
  ModelKnobs Knobs = PM.Knobs;
  Knobs.RspareBytes += 1;
  Rhs.patchKnobs(Knobs);
  EXPECT_NE(Rhs.contentKey(), Sha);
  PlacementModel Base = PM;
  Base.BaseCycles += 1.0;
  EXPECT_NE(Base.contentKey(), Sha);
  // Names never reach the solver, so they stay out of the key.
  PlacementModel Renamed = PM;
  Renamed.P.Variables[0].Name += "_renamed";
  EXPECT_EQ(Renamed.contentKey(), Sha);

  // The chain key adds the solver config and the knob points visited,
  // in order.
  PlacementSolver Solver(MP, PM.Knobs);
  SolverConfig Cfg;
  ModelKnobs Loose = PM.Knobs, Tight = PM.Knobs;
  Loose.RspareBytes = 512;
  Loose.Xlimit = 1.5;
  Tight.RspareBytes = 256;
  Tight.Xlimit = 1.2;
  const std::vector<ModelKnobs> Points = {Loose, Tight};
  SolverConfig NodeCapped = Cfg;
  NodeCapped.NodeLimit = 1000000;
  EXPECT_NE(Solver.chainKey(Cfg, Points), Solver.chainKey(NodeCapped, Points));
  EXPECT_EQ(Solver.chainKey(Cfg, Points),
            PlacementSolver(MP, PM.Knobs).chainKey(Cfg, Points));
  // Dropping, reordering or moving a knob point names another chain.
  std::set<uint64_t> Keys = {
      Solver.chainKey(Cfg, Points), Solver.chainKey(Cfg, {Loose}),
      Solver.chainKey(Cfg, {Tight}), Solver.chainKey(Cfg, {}),
      Solver.chainKey(Cfg, {Tight, Loose})};
  ModelKnobs Moved = Tight;
  Moved.Xlimit = std::nextafter(Tight.Xlimit, 2.0);
  Keys.insert(Solver.chainKey(Cfg, {Loose, Moved}));
  Moved = Tight;
  Moved.RspareBytes += 1;
  Keys.insert(Solver.chainKey(Cfg, {Loose, Moved}));
  EXPECT_EQ(Keys.size(), 7u);
}

namespace {

/// 2 programs x 3 devices x 2 Rspare x 2 Xlimit Measure grid whose knob
/// points choose several placements, some shared across devices.
GridSpec buildSharingGrid() {
  GridSpec Grid;
  Grid.Benchmarks = {"cubic", "crc32"};
  Grid.Levels = {OptLevel::O1};
  Grid.Devices = {"stm32f100", "stm32f100-slowcorner", "stm32f100-2ws"};
  Grid.RsparePoints = {64, 128};
  Grid.XlimitPoints = {1.1, 1.5};
  Grid.Repeat = 2;
  return Grid;
}

/// The distinct (program, placement) pairs of \p Grid, solved one knob
/// point at a time outside the campaign.
size_t distinctPlacements(const GridSpec &Grid) {
  std::set<std::pair<std::string, Assignment>> Seen;
  for (const std::string &Bench : Grid.Benchmarks)
    for (OptLevel Level : Grid.Levels) {
      Module M = buildBeebs(Bench, Level, Grid.Repeat);
      for (const std::string &Device : Grid.Devices) {
        const DeviceInfo *Dev = findDevice(Device);
        PipelineOptions Opts;
        Opts.Power = Dev->Model;
        Opts.Sim.Timing = Dev->Timing;
        Opts.Extract.Timing = Dev->Timing;
        ExtractedModule EM = extractModule(M, Opts, /*NeedBaseline=*/false);
        EXPECT_TRUE(EM.ok()) << EM.Error;
        for (unsigned Rspare : Grid.RsparePoints)
          for (double Xlimit : Grid.XlimitPoints) {
            ModelKnobs Knobs = Opts.Knobs;
            Knobs.RspareBytes = Rspare;
            Knobs.Xlimit = Xlimit;
            PlacementSolver Solver(EM.MP, Knobs);
            Seen.emplace(Bench + optLevelName(Level),
                         Solver.solve(Knobs, Opts.Solver));
          }
      }
    }
  return Seen.size();
}

} // namespace

TEST(Campaign, ProgramsAndPlacementsAreBuiltOncePerCampaign) {
  // Under profile reuse a program, its baseline image and each distinct
  // placement are built once for the whole campaign, and every device
  // only prices them; the rows must equal the per-group builds of the
  // profile-off run.
  GridSpec Grid = buildSharingGrid();
  size_t Placements = distinctPlacements(Grid);
  EXPECT_GE(Placements, 4u);

  CampaignOptions Off;
  Off.ReuseProfiles = false;
  CampaignResult Reference = runCampaign(Grid, Off);
  ASSERT_EQ(Reference.Summary.Failed, 0u);

  for (unsigned Jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs " + std::to_string(Jobs));
    MetricsRegistry Reg;
    CampaignOptions Opts;
    Opts.Jobs = Jobs;
    Opts.Metrics = &Reg;
    uint64_t DerivedBefore = globalMetrics().counterValue("sim.derived");
    CampaignResult CR = runCampaign(Grid, Opts);
    EXPECT_EQ(campaignToJson(CR), campaignToJson(Reference));
    EXPECT_EQ(campaignToCsv(CR), campaignToCsv(Reference));
    EXPECT_EQ(Reg.counterValue("campaign.build.programs"), 2u);
    EXPECT_EQ(Reg.counterValue("campaign.build.placements"), Placements);
    EXPECT_GT(globalMetrics().counterValue("sim.derived"), DerivedBefore);
  }
}

TEST(Campaign, AnOverBudgetDeviceRebuildsTheSharedPlacement) {
  // cubic's placements run longer than its baseline on every device, and
  // slower flash adds to both. With the budget one cycle under the
  // 1-wait-state part's optimized run, the 0-wait-state part prices the
  // shared, derived build within budget while the slow part's price is
  // over it: that device rebuilds the full image the shared entry no
  // longer holds and simulates it. Its rows must equal the profile-off
  // run's.
  GridSpec Grid = buildSharingGrid();
  CampaignOptions Off;
  Off.ReuseProfiles = false;
  CampaignResult Uncapped = runCampaign(Grid, Off);
  auto row = [&](const CampaignResult &CR, const std::string &Device) {
    for (const JobResult &R : CR.Results)
      if (R.Spec.Benchmark == "cubic" && R.Spec.Device == Device &&
          R.Spec.RspareBytes == 64 && R.Spec.Xlimit == 1.1)
        return R;
    ADD_FAILURE() << "no cubic row on " << Device;
    return JobResult();
  };
  JobResult Slow = row(Uncapped, "stm32f100-slowcorner");
  JobResult Fast = row(Uncapped, "stm32f100");
  ASSERT_TRUE(Slow.ok() && Fast.ok());
  ASSERT_GT(Slow.OptCycles, Slow.BaseCycles);
  ASSERT_LT(Fast.OptCycles, Slow.BaseCycles);
  ASSERT_EQ(Fast.RamBytes, Slow.RamBytes); // the same placement

  Off.Base.Sim.MaxCycles = Slow.OptCycles - 1;
  CampaignResult Reference = runCampaign(Grid, Off);
  EXPECT_TRUE(row(Reference, "stm32f100").ok());
  EXPECT_EQ(row(Reference, "stm32f100-slowcorner").Error,
            "optimized run failed: cycle limit exceeded");

  for (unsigned Jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs " + std::to_string(Jobs));
    CampaignOptions Opts;
    Opts.Jobs = Jobs;
    Opts.Base.Sim.MaxCycles = Off.Base.Sim.MaxCycles;
    MetricsRegistry &Reg = globalMetrics();
    uint64_t OverBefore =
        Reg.counterValue("sim.derive_fallback.over-budget");
    uint64_t DerivedBefore = Reg.counterValue("sim.derived");
    CampaignResult CR = runCampaign(Grid, Opts);
    EXPECT_EQ(campaignToJson(CR), campaignToJson(Reference));
    EXPECT_EQ(campaignToCsv(CR), campaignToCsv(Reference));
    EXPECT_GT(Reg.counterValue("sim.derive_fallback.over-budget"),
              OverBefore);
    EXPECT_GT(Reg.counterValue("sim.derived"), DerivedBefore);
  }
}
