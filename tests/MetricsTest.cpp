//===- tests/MetricsTest.cpp - metrics registry and campaign counters ---------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "campaign/Campaign.h"
#include "campaign/Report.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace ramloc;

TEST(Metrics, CountersAccumulateAcrossThreads) {
  MetricsRegistry Reg;
  Counter &C = Reg.counter("work.items");
  constexpr unsigned Threads = 4, AddsPerThread = 1000;
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&C] {
      for (unsigned I = 0; I != AddsPerThread; ++I)
        C.add();
    });
  for (std::thread &T : Pool)
    T.join();
  EXPECT_EQ(C.value(), Threads * AddsPerThread);
  // Same instrument on re-lookup, not a fresh one.
  EXPECT_EQ(&Reg.counter("work.items"), &C);
}

TEST(Metrics, CounterValueDoesNotCreate) {
  MetricsRegistry Reg;
  EXPECT_EQ(Reg.counterValue("never.recorded"), 0u);
  // The read must not have materialized the counter in snapshots.
  JsonValue V;
  ASSERT_TRUE(JsonValue::parse(Reg.toJson(), V));
  EXPECT_EQ(V.find("counters")->members().size(), 0u);
}

TEST(Metrics, HistogramTracksRunningStats) {
  MetricsRegistry Reg;
  Histogram &H = Reg.histogram("solve.pivots");
  EXPECT_EQ(H.stats().Count, 0u);
  EXPECT_EQ(H.stats().mean(), 0.0);
  for (double Sample : {4.0, 1.0, 7.0})
    H.record(Sample);
  Histogram::Stats S = H.stats();
  EXPECT_EQ(S.Count, 3u);
  EXPECT_EQ(S.Sum, 12.0);
  EXPECT_EQ(S.Min, 1.0);
  EXPECT_EQ(S.Max, 7.0);
  EXPECT_EQ(S.mean(), 4.0);
}

TEST(Metrics, SnapshotIsSortedAndDeterministic) {
  auto populate = [](MetricsRegistry &Reg) {
    // Insertion order deliberately unsorted.
    Reg.counter("zeta").add(3);
    Reg.counter("alpha").add(1);
    Reg.histogram("span").record(4.0);
  };
  MetricsRegistry A, B;
  populate(A);
  populate(B);
  EXPECT_EQ(A.toJson(), B.toJson());

  JsonValue V;
  std::string Error;
  ASSERT_TRUE(JsonValue::parse(A.toJson(), V, &Error)) << Error;
  EXPECT_EQ(V.find("schema")->string(), "ramloc-metrics-v1");
  const auto &Counters = V.find("counters")->members();
  ASSERT_EQ(Counters.size(), 2u);
  EXPECT_EQ(Counters[0].first, "alpha"); // sorted by name
  EXPECT_EQ(Counters[1].first, "zeta");
  EXPECT_EQ(Counters[1].second.number(), 3.0);
  const JsonValue *Span = V.find("histograms")->find("span");
  ASSERT_NE(Span, nullptr);
  EXPECT_EQ(Span->find("count")->number(), 1.0);
  EXPECT_EQ(Span->find("mean")->number(), 4.0);
}

namespace {

GridSpec modelOnlyGrid() {
  GridSpec Grid;
  Grid.Benchmarks = {"crc32"};
  Grid.RsparePoints = {128, 256, 512};
  Grid.Kind = JobKind::ModelOnly;
  return Grid;
}

} // namespace

TEST(Metrics, LiveSolvesAreColdPlusWarmMinusReplayedMinusDominated) {
  // stm32f100-48mhz poses stm32f100's ILP exactly, so its group replays
  // the other's solve chain. campaign.solve.{cold,warm} keep counting
  // per job (a replayed job under its donor's label); mip.solves counts
  // only the solver's live work, which skips a point its chain settled
  // from a looser proven optimum.
  GridSpec Grid = modelOnlyGrid();
  Grid.Devices = {"stm32f100", "stm32f100-48mhz"};
  MetricsRegistry Reg;
  CampaignOptions Opts;
  Opts.Metrics = &Reg;
  uint64_t SolvesBefore = globalMetrics().counterValue("mip.solves");
  uint64_t DominatedBefore = globalMetrics().counterValue("mip.dominated");
  CampaignResult CR = runCampaign(Grid, Opts);
  uint64_t Solves = globalMetrics().counterValue("mip.solves") - SolvesBefore;

  ASSERT_EQ(CR.Summary.Failed, 0u);
  EXPECT_EQ(Reg.counterValue("campaign.solve.extractions"), 2u);
  EXPECT_EQ(Reg.counterValue("campaign.solve.replayed"), 3u);
  EXPECT_EQ(Reg.counterValue("campaign.solve.cold"), 2u);
  EXPECT_EQ(Reg.counterValue("campaign.solve.warm"), 4u);
  EXPECT_EQ(Reg.counterValue("campaign.solve.dominated"), 1u);
  EXPECT_EQ(globalMetrics().counterValue("mip.dominated") - DominatedBefore,
            1u);
  EXPECT_EQ(Solves, 2u);
  EXPECT_EQ(Solves, Reg.counterValue("campaign.solve.cold") +
                        Reg.counterValue("campaign.solve.warm") -
                        Reg.counterValue("campaign.solve.replayed") -
                        Reg.counterValue("campaign.solve.dominated"));
  // The effort histograms record live knob points only, settled or
  // searched.
  EXPECT_EQ(Reg.histogram("campaign.solve.nodes").stats().Count,
            Solves + Reg.counterValue("campaign.solve.dominated"));
  EXPECT_EQ(Reg.histogram("campaign.wall_seconds").stats().Count, 1u);
}

TEST(Metrics, TelemetryNeverChangesReports) {
  // No registry, no recorder: the reference run.
  CampaignResult Plain = runCampaign(modelOnlyGrid());

  // Registry attached and a trace recorder installed: the report must be
  // byte-identical — telemetry is a side channel by contract.
  MetricsRegistry Reg;
  TraceRecorder Recorder;
  Recorder.install();
  CampaignOptions Opts;
  Opts.Metrics = &Reg;
  Opts.Jobs = 4;
  CampaignResult Instrumented = runCampaign(modelOnlyGrid(), Opts);
  TraceRecorder::uninstall();

  EXPECT_EQ(campaignToJson(Plain), campaignToJson(Instrumented));
  EXPECT_GT(Recorder.eventCount(), 0u);
  EXPECT_GT(Reg.counterValue("campaign.solve.extractions"), 0u);
}

TEST(Metrics, TracedCampaignRecordsOneJobSpanPerSolveGroup) {
  // What the per-layer benchmark ledger reads from a traced campaign:
  // one `job` span per solve group, each on a `worker-N` lane, and the
  // jobqueue.idle_ns counter. A campaign starts no more workers than it
  // has groups.
  GridSpec Grid = modelOnlyGrid();
  Grid.Devices = {"stm32f100", "stm32f100-48mhz", "stm32l-lp"};
  std::set<std::string> Groups;
  for (const JobSpec &J : Grid.expand())
    Groups.insert(J.solveGroupKey());
  ASSERT_EQ(Groups.size(), 3u);

  // The last pass reruns the grid against the cache the pass before it
  // filled: every job is a hit, no group is left to run, and no worker
  // starts.
  ResultCache Cache;
  MetricsRegistry Reg;
  struct Pass {
    unsigned Jobs;
    ResultCache *Cache;
    size_t GroupsRun;
  };
  for (Pass P : {Pass{2, nullptr, 3}, Pass{8, &Cache, 3}, Pass{8, &Cache, 0}}) {
    SCOPED_TRACE("jobs " + std::to_string(P.Jobs) + ", groups run " +
                 std::to_string(P.GroupsRun));
    TraceRecorder Recorder;
    Recorder.install();
    CampaignOptions Opts;
    Opts.Jobs = P.Jobs;
    Opts.Cache = P.Cache;
    Opts.Metrics = &Reg;
    CampaignResult CR = runCampaign(Grid, Opts);
    TraceRecorder::uninstall();
    ASSERT_EQ(CR.Summary.Failed, 0u);
    EXPECT_EQ(CR.Summary.CacheHits, P.GroupsRun ? 0u : CR.Results.size());

    TraceSnapshot S = Recorder.snapshot();
    std::map<unsigned, std::string> Lanes(S.ThreadNames.begin(),
                                          S.ThreadNames.end());
    size_t WorkerLanes = 0;
    for (const auto &[Tid, Name] : Lanes)
      if (Name.rfind("worker-", 0) == 0)
        ++WorkerLanes;
    EXPECT_EQ(WorkerLanes, std::min<size_t>(P.Jobs, P.GroupsRun));
    size_t JobSpans = 0;
    for (const TraceEvent &E : S.Events) {
      if (std::string(E.Name) != "job")
        continue;
      ++JobSpans;
      EXPECT_STREQ(E.Category, "queue");
      ASSERT_TRUE(Lanes.count(E.Tid));
      EXPECT_EQ(Lanes[E.Tid].rfind("worker-", 0), 0u) << Lanes[E.Tid];
    }
    EXPECT_EQ(JobSpans, P.GroupsRun);
  }

  JsonValue V;
  ASSERT_TRUE(JsonValue::parse(Reg.toJson(), V));
  EXPECT_NE(V.find("counters")->find("jobqueue.idle_ns"), nullptr);
}

TEST(Metrics, JournalAndIdleCountsGoToTheCampaignsRegistry) {
  // A campaign with its own registry keeps every campaign count there:
  // two campaigns in one process do not mix their journal appends or
  // their workers' idle time in the global registry.
  MetricsRegistry &G = globalMetrics();
  uint64_t AppendsBefore = G.counterValue("campaign.journal.appends");
  uint64_t IdleBefore = G.counterValue("jobqueue.idle_ns");
  MetricsRegistry Reg;
  CampaignOptions Opts;
  Opts.Metrics = &Reg;
  Opts.Jobs = 2;
  unsigned Journalled = 0;
  Opts.Journal = [&](const JobResult &) { ++Journalled; };
  GridSpec Grid = modelOnlyGrid();
  Grid.Devices = {"stm32f100", "stm32l-lp"};
  CampaignResult CR = runCampaign(Grid, Opts);

  ASSERT_EQ(CR.Summary.Failed, 0u);
  EXPECT_GT(Journalled, 0u);
  EXPECT_EQ(Journalled, CR.Summary.UniqueRuns);
  EXPECT_EQ(Reg.counterValue("campaign.journal.appends"), Journalled);
  JsonValue V;
  ASSERT_TRUE(JsonValue::parse(Reg.toJson(), V));
  EXPECT_NE(V.find("counters")->find("jobqueue.idle_ns"), nullptr);
  EXPECT_EQ(G.counterValue("campaign.journal.appends"), AppendsBefore);
  EXPECT_EQ(G.counterValue("jobqueue.idle_ns"), IdleBefore);
}
