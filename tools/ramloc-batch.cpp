//===- tools/ramloc-batch.cpp - campaign batch runner -----------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// Expands a benchmark x device x knob grid into jobs and runs them on the
// campaign engine's worker threads: one command replays a whole figure's
// worth of pipeline runs in parallel. Reports are deterministic: the same
// grid produces byte-identical JSON/CSV whatever --jobs is, whether
// results came from the persistent cache, and whether the grid ran whole
// or as merged --shard parts.
//
// Flags: see `ramloc-batch --help`; the table in main() is their only
// definition.
//
//===----------------------------------------------------------------------===//

#include "beebs/Beebs.h"
#include "campaign/CacheStore.h"
#include "campaign/Campaign.h"
#include "campaign/Report.h"
#include "power/DeviceRegistry.h"
#include "support/FaultInjector.h"
#include "support/Flags.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Table.h"
#include "support/Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace ramloc;

namespace {

/// Writes \p Doc to \p Path ('-' = stdout); reports a failure on stderr.
bool writeReport(const std::string &Path, const std::string &Doc) {
  std::string Error;
  if (Path == "-")
    std::fputs(Doc.c_str(), stdout);
  else if (!writeTextFile(Path, Doc, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return false;
  }
  return true;
}

/// Writes the --json and --csv reports that were asked for.
bool writeReports(const CampaignResult &CR, const std::string &JsonPath,
                  const std::string &CsvPath) {
  return (JsonPath.empty() || writeReport(JsonPath, campaignToJson(CR))) &&
         (CsvPath.empty() || writeReport(CsvPath, campaignToCsv(CR)));
}

/// Merge mode: parse the shard reports, concatenate in argument order,
/// recompute the summary, and emit exactly what the unsharded run would
/// have written.
int runMerge(const std::vector<std::string> &Files,
             const std::string &JsonPath, const std::string &CsvPath,
             const std::string &CacheDir, bool Quiet) {
  if (Files.empty()) {
    std::fprintf(stderr, "error: --merge needs at least one report\n");
    return 2;
  }
  std::vector<std::string> Docs;
  std::string Error;
  for (const std::string &F : Files) {
    std::string Doc;
    if (!readTextFile(F, Doc, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
    Docs.push_back(std::move(Doc));
  }
  CampaignResult CR;
  if (!mergeCampaignReports(Docs, CR, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 2;
  }
  if (!Quiet)
    std::fprintf(stderr,
                 "merged %zu report(s): %u job(s), %u succeeded, %u "
                 "failed\n",
                 Files.size(), CR.Summary.Total, CR.Summary.Succeeded,
                 CR.Summary.Failed);
  if (!writeReports(CR, JsonPath, CsvPath) || CR.Summary.Failed != 0)
    return 1;
  if (!CacheDir.empty()) {
    // Merge is the natural compaction point: shard workers appended
    // into the shared store; fold their lines into one sorted file.
    CacheStore Store;
    if (!Store.open(CacheDir, &Error) || !Store.compact(&Error))
      std::fprintf(stderr, "warning: cache compaction failed: %s\n",
                   Error.c_str());
    else if (!Quiet)
      std::fprintf(stderr, "cache: compacted %zu result(s), %zu "
                           "profile(s)\n",
                   Store.cache().size(),
                   profileSnapshot(Store.profiles()).size());
  }
  return 0;
}

/// Relative movement of \p New against \p Old in percent. Equal values
/// (including both zero) are 0; a metric appearing or vanishing against a
/// zero baseline counts as a full-scale 100% move.
double metricDeltaPct(double Old, double New) {
  if (Old == New)
    return 0.0;
  if (Old == 0.0)
    return 100.0;
  return (New - Old) / std::fabs(Old) * 100.0;
}

/// Diff mode: match two reports config-by-config and report every metric
/// that moved, for regression tracking across commits. Exit status 1 when
/// any |delta| exceeds the threshold or the config sets differ; 2 on
/// usage/parse errors.
int runDiff(const std::vector<std::string> &Files, double ThresholdPct,
            bool Quiet) {
  if (Files.size() != 2) {
    std::fprintf(stderr, "error: --diff needs exactly two reports\n");
    return 2;
  }
  CampaignResult Reports[2];
  for (unsigned I = 0; I != 2; ++I) {
    std::string Doc, Error;
    if (!readTextFile(Files[I], Doc, &Error) ||
        !parseCampaignReport(Doc, Reports[I], &Error)) {
      std::fprintf(stderr, "error: %s: %s\n", Files[I].c_str(),
                   Error.c_str());
      return 2;
    }
  }

  // Keys can repeat (a grid may name the same axis value twice), so
  // match occurrences positionally per key, not first-wins.
  std::map<std::string, std::vector<const JobResult *>> InB;
  for (const JobResult &R : Reports[1].Results)
    InB[R.Spec.cacheKey()].push_back(&R);

  Table T({"config", "metric", Files[0], Files[1], "delta"});
  double MaxDelta = 0.0;
  size_t Compared = 0, ChangedConfigs = 0, OnlyA = 0, OnlyB = 0;

  for (const JobResult &A : Reports[0].Results) {
    std::string Key = A.Spec.cacheKey();
    auto It = InB.find(Key);
    if (It == InB.end() || It->second.empty()) {
      T.addRow({Key, "(config)", "present", "missing", "-"});
      ++OnlyA;
      continue;
    }
    const JobResult &B = *It->second.back();
    It->second.pop_back();
    if (It->second.empty())
      InB.erase(It);
    ++Compared;
    bool Changed = false;

    if (A.ok() != B.ok()) {
      T.addRow({Key, "ok", A.ok() ? "true" : "false",
                B.ok() ? "true" : "false", "-"});
      MaxDelta = std::max(MaxDelta, 1e9); // a flip always fails
      ++ChangedConfigs;
      continue;
    }
    // A proven optimum and a limit-truncated best effort are not the
    // same result even when every number matches: the flip always fails.
    if (A.SolveOutcome != B.SolveOutcome) {
      T.addRow({Key, "solve_status", solveStatusName(A.SolveOutcome),
                solveStatusName(B.SolveOutcome), "-"});
      MaxDelta = std::max(MaxDelta, 1e9);
      ++ChangedConfigs;
      continue;
    }

    // Every stored number is compared; how a result was obtained
    // (cache hits, reuse layers, solver effort) is not part of the
    // record, so a change that moves only effort never reads as drift.
    for (const MetricChange &M : changedMetrics(A, B)) {
      double Delta = metricDeltaPct(M.Old, M.New);
      MaxDelta = std::max(MaxDelta, std::fabs(Delta));
      Changed = true;
      T.addRow({Key, M.Name, formatString("%.6g", M.Old),
                formatString("%.6g", M.New),
                formatString("%+.3f%%", Delta)});
    }
    ChangedConfigs += Changed;
  }
  for (const auto &[Key, Rs] : InB)
    for (size_t I = 0; I != Rs.size(); ++I) {
      T.addRow({Key, "(config)", "missing", "present", "-"});
      ++OnlyB;
    }

  bool SetMismatch = OnlyA != 0 || OnlyB != 0;
  bool Fail = SetMismatch || MaxDelta > ThresholdPct;
  if (!Quiet) {
    if (ChangedConfigs != 0 || SetMismatch)
      std::printf("%s", T.render().c_str());
    std::printf("%zu config(s) compared, %zu changed, %zu only in %s, "
                "%zu only in %s\n",
                Compared, ChangedConfigs, OnlyA, Files[0].c_str(), OnlyB,
                Files[1].c_str());
    std::printf("max |delta| %.3f%% (threshold %.3f%%): %s\n",
                MaxDelta >= 1e9 ? 100.0 : MaxDelta, ThresholdPct,
                Fail ? "FAIL" : "ok");
  }
  return Fail ? 1 : 0;
}

/// Fsck mode: verify (and with \p Repair, heal) every store file.
int runFsck(const std::string &CacheDir, bool Repair, bool Quiet) {
  CacheStore Store;
  std::string Error;
  if (!Store.open(CacheDir, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  CacheStore::FsckReport Report;
  if (!Store.fsck(Repair, Report, &Error)) {
    std::fprintf(stderr, "error: fsck: %s\n", Error.c_str());
    return 1;
  }
  if (!Quiet) {
    for (const CacheStore::FsckFile &F : Report.Files) {
      if (!F.Present) {
        std::fprintf(stderr, "%-10s absent\n", F.Name.c_str());
        continue;
      }
      std::fprintf(stderr,
                   "%-10s %zu valid, %zu corrupt, %zu stale, "
                   "%zu duplicate%s\n",
                   F.Name.c_str(), F.Valid, F.Corrupt, F.Stale,
                   F.Duplicate, F.HeaderOk ? "" : " [bad header]");
    }
    for (const std::string &T : Report.OrphanedTemps)
      std::fprintf(stderr, "swept orphaned temp: %s\n", T.c_str());
  }
  if (!Repair) {
    if (Report.damaged()) {
      std::fprintf(stderr, "store is damaged (rerun with --repair)\n");
      return 1;
    }
    if (!Quiet)
      std::fprintf(stderr, "store is clean\n");
    return 0;
  }
  // Repair must converge: a fresh walk of the rewritten store has to
  // come back clean, or the "repaired" store would fail its next fsck.
  CacheStore Verify;
  CacheStore::FsckReport After;
  if (!Verify.open(CacheDir, &Error) ||
      !Verify.fsck(/*Repair=*/false, After, &Error) || After.damaged()) {
    std::fprintf(stderr, "error: repair did not converge%s%s\n",
                 Error.empty() ? "" : ": ", Error.c_str());
    return 1;
  }
  if (!Quiet)
    std::fprintf(stderr, Report.damaged() ? "store repaired\n"
                                          : "store was already clean\n");
  return 0;
}

/// A comma list of registry names, or "all" for \p All().
FlagSetter bindNames(std::vector<std::string> &Out,
                     std::vector<std::string> (*All)(),
                     bool (*Known)(const std::string &)) {
  FlagSetter List = bindList(Out, [Known](const std::string &S,
                                          std::string &Name) {
    Name = S;
    return Known(S);
  });
  return [&Out, All, List](const std::string &Value, std::string &Why) {
    if (Value != "all")
      return List(Value, Why);
    Out = All();
    return true;
  };
}

bool isKnownDevice(const std::string &Name) { return findDevice(Name); }

bool isReuseLayer(const std::string &S, std::string &Out) {
  Out = S;
  return S == "cache" || S == "profile" || S == "solve" || S == "all" ||
         S == "none";
}

/// "K/N" with 1 <= K <= N.
FlagSetter bindShard(unsigned &Index, unsigned &Count) {
  return [&Index, &Count](const std::string &S, std::string &) {
    size_t Slash = S.find('/');
    return Slash != std::string::npos &&
           parseUnsigned(S.substr(0, Slash), Index) &&
           parseUnsigned(S.substr(Slash + 1), Count) && Index >= 1 &&
           Index <= Count;
  };
}

} // namespace

int main(int Argc, char **Argv) {
  GridSpec Grid;
  Grid.Benchmarks = beebsNames();
  CampaignOptions Opts;
  Opts.Jobs = 0; // hardware concurrency
  SolverConfig &Solver = Opts.Base.Solver;
  std::vector<std::string> Reuse = {"all"};
  std::string JsonPath, CsvPath, CacheDir, TracePath, MetricsPath;
  unsigned ShardIndex = 1, ShardCount = 1;
  double DiffThreshold = 0.0;
  bool ModelOnly = false, DryRun = false, Verbose = false, Quiet = false,
       Merge = false, Diff = false, Resume = false,
       Fsck = false, Repair = false, ListDevices = false,
       ListBenchmarks = false, Help = false;
  // Outlives every worker thread; installs only when --fault arms a site.
  FaultInjector Faults;

  FlagTable Flags(
      "usage: ramloc-batch [options]\n"
      "       ramloc-batch --merge SHARD.json... [--json=FILE] [--csv=FILE]\n"
      "                    [--cache-dir=DIR]\n"
      "       ramloc-batch --diff A.json B.json [--diff-threshold=PCT]\n"
      "       ramloc-batch --fsck [--repair] --cache-dir=DIR\n");
  Flags.section("grid selection");
  Flags.add("benchmarks", "LIST",
            "BEEBS benchmarks, or 'all' (default: all; see "
            "--list-benchmarks)",
            bindNames(Grid.Benchmarks, beebsNames, isKnownBeebs));
  Flags.add("levels", "LIST", "optimisation levels O0..Os (default: O2)",
            bindList(Grid.Levels, optLevelFromName));
  Flags.add("devices", "LIST",
            "target devices, or 'all' (default: stm32f100; see "
            "--list-devices)",
            bindNames(Grid.Devices, deviceNames, isKnownDevice));
  Flags.add("rspare", "LIST", "RAM-spare axis in bytes (default: 512)",
            bindList(Grid.RsparePoints, parseUnsigned));
  Flags.add("xlimit", "LIST", "execution-time-limit axis (default: 1.5)",
            bindList(Grid.XlimitPoints, parseFiniteDouble));
  Flags.add("freq", "LIST",
            "block-frequency modes: static, profiled (default: static)",
            bindList(Grid.FreqModes, freqModeFromName));
  Flags.add("repeat", "N",
            "kernel iterations per run; 0 (the default) keeps each "
            "benchmark's suite default",
            bindValue(Grid.Repeat, parseUnsigned));
  Flags.add("model-only",
            "stop at the ILP and skip simulation; with --freq=profiled the "
            "baseline still simulates once per job to collect the profile",
            ModelOnly);

  Flags.section("execution");
  Flags.add("jobs", "N", "worker threads (default 0: all cores)",
            bindValue(Opts.Jobs, parseUnsigned));
  Flags.add("reuse", "LIST",
            "reuse layers that stay on: cache (persistent results), profile "
            "(recost shared execution profiles, and derive each optimized "
            "image's profile from its baseline's), solve (share the ILP "
            "across a knob axis visited loosest-first, warm-start from "
            "neighbouring solves, settle a point a looser point's proven "
            "optimum still fits without search, and solve groups with "
            "bit-identical ILPs once), or all (the default) / none (every "
            "image simulated). Every layer is exact: reports are "
            "byte-identical whenever every solve proves optimality",
            bindList(Reuse, isReuseLayer));

  Flags.section("persistence and distribution");
  Flags.add("cache-dir", "DIR",
            "persistent store of results, profiles and the resume "
            "journal: loaded before the run and appended after, so "
            "repeated runs are incremental",
            bindValue(CacheDir, parsePath));
  Flags.add("shard", "K/N",
            "run only the K-th of N contiguous slices of the grid (1-based; "
            "combine the parts with --merge)",
            bindShard(ShardIndex, ShardCount));
  Flags.add("merge",
            "combine the shard reports given as arguments instead of "
            "running; writes the merged report via --json/--csv and, with "
            "--cache-dir, compacts the store",
            Merge);

  Flags.section("robustness");
  Flags.add("resume",
            "replay the progress journal an interrupted run left in "
            "--cache-dir and compute only what is missing; the report is "
            "byte-identical to the uninterrupted run at any --jobs, and a "
            "journal written under other solver settings replays nothing",
            Resume);
  Flags.add("time-limit-ms", "N",
            "per-solve wall-clock budget; a solve that hits it returns its "
            "best incumbent labelled feasible-limit, never silently optimal "
            "(0 = unlimited, the default)",
            bindValue(Solver.TimeLimitMs, parseUnsigned));
  Flags.add("node-limit", "N",
            "per-solve branch & bound node budget, same best-effort "
            "contract (0 = unlimited)",
            bindValue(Solver.NodeLimit, parseUInt64));
  Flags.add("pivot-limit", "N",
            "per-solve simplex pivot budget, same best-effort contract "
            "(0 = unlimited)",
            bindValue(Solver.PivotLimit, parseUInt64));
  Flags.add("fsck",
            "verify the store instead of running: check every line's "
            "CRC32C frame in all four files, report valid/corrupt/stale/"
            "duplicate counts and swept orphaned temporaries, and exit "
            "non-zero on damage (needs --cache-dir)",
            Fsck);
  Flags.add("repair",
            "with --fsck: rewrite each damaged file under its lock keeping "
            "only valid records (corrupt lines go to <file>.quarantine), "
            "then check that the store walks clean",
            Repair);
  Flags.add("fault", "SITE:RATE[:SEED]",
            "arm the deterministic fault injector (repeatable; testing "
            "only): each pass through SITE fails with probability RATE. "
            "Sites: cache.append.short, cache.append.eio, cache.rename, "
            "cache.lock, cache.load.eio, cache.load.flip, job.abort, "
            "solver.degrade",
            [&Faults](const std::string &Spec, std::string &Why) {
              return Faults.armSpec(Spec, Why);
            });

  Flags.section("reports and diagnostics");
  Flags.add("json", "FILE", "write the JSON report ('-' = stdout)",
            bindValue(JsonPath, parsePath));
  Flags.add("csv", "FILE", "write the CSV report ('-' = stdout)",
            bindValue(CsvPath, parsePath));
  Flags.add("diff",
            "compare the two reports given as arguments config by config; "
            "exits non-zero when any metric moves more than "
            "--diff-threshold or the config sets differ",
            Diff);
  Flags.add("diff-threshold", "PCT",
            "|delta| tolerance for --diff in percent (default 0)",
            [&DiffThreshold](const std::string &V, std::string &) {
              return parseFiniteDouble(V, DiffThreshold) &&
                     DiffThreshold >= 0;
            });
  Flags.add("trace", "FILE",
            "record spans across the run (one lane per worker) and write "
            "Chrome trace_event JSON for chrome://tracing or ui.perfetto.dev",
            bindValue(TracePath, parsePath));
  Flags.add("metrics", "FILE",
            "write a JSON snapshot of the metrics registry (solver effort, "
            "full sims vs recosts, cache hits, queue idle time) after the "
            "run. Telemetry never changes the reports",
            bindValue(MetricsPath, parsePath));
  Flags.add("dry-run", "print the expanded job list and exit", DryRun);
  Flags.add("list-devices", "print the device registry and exit",
            ListDevices);
  Flags.add("list-benchmarks", "print the benchmark registry and exit",
            ListBenchmarks);
  Flags.add("verbose", "per-job progress on stderr", Verbose);
  Flags.add("quiet", "suppress the summary", Quiet);
  Flags.add("help", "print this help and exit", Help);

  std::vector<std::string> Files;
  std::string Error;
  if (!Flags.parse(Argc, Argv, Files, Error)) {
    std::fprintf(stderr, "error: %s (see --help)\n", Error.c_str());
    return 2;
  }
  if (Help) {
    std::fputs(Flags.help().c_str(), stdout);
    return 0;
  }
  if (ListDevices) {
    Table T({"device", "clock", "wait states", "sleep", "description"});
    for (const DeviceInfo &D : deviceRegistry())
      T.addRow({D.Name, formatString("%.0f MHz", D.Model.ClockHz / 1e6),
                formatString("%u", D.Timing.FlashWaitStates),
                formatString("%.1f mW", D.Model.SleepMilliWatts),
                D.Description});
    std::printf("%s", T.render().c_str());
    return 0;
  }
  if (ListBenchmarks) {
    for (const BeebsInfo &Info : beebsSuite())
      std::printf("%s\n", Info.Name);
    return 0;
  }

  // The three modes replace the grid run, so at most one may be asked for.
  const char *Mode = nullptr;
  const std::pair<const char *, bool> Modes[] = {
      {"--merge", Merge}, {"--diff", Diff}, {"--fsck", Fsck}};
  for (auto [Name, On] : Modes) {
    if (On && Mode) {
      std::fprintf(stderr, "error: %s and %s are exclusive\n", Mode, Name);
      return 2;
    }
    if (On)
      Mode = Name;
  }
  if (!Files.empty() && !Merge && !Diff) {
    std::fprintf(stderr,
                 "error: unexpected argument '%s' (report files need "
                 "--merge or --diff)\n",
                 Files.front().c_str());
    return 2;
  }
  if (Repair && !Fsck) {
    std::fprintf(stderr, "error: --repair needs --fsck\n");
    return 2;
  }
  const std::pair<const char *, bool> NeedStore[] = {{"--resume", Resume},
                                                      {"--fsck", Fsck}};
  for (auto [Name, On] : NeedStore)
    if (On && CacheDir.empty()) {
      std::fprintf(stderr, "error: %s needs --cache-dir\n", Name);
      return 2;
    }
  auto Reused = [&Reuse](const char *Layer) {
    return std::find(Reuse.begin(), Reuse.end(), Layer) != Reuse.end() ||
           std::find(Reuse.begin(), Reuse.end(), "all") != Reuse.end();
  };
  // The journal is replayed into the result cache, so without that layer
  // a resume would silently recompute every journaled job.
  if (Resume && !Reused("cache")) {
    std::fprintf(stderr, "error: --resume needs the 'cache' reuse layer\n");
    return 2;
  }
  // Install before any I/O so injection covers the initial cache load.
  if (!Faults.armedSites().empty())
    Faults.install();

  if (Diff)
    return runDiff(Files, DiffThreshold, Quiet);
  if (Fsck)
    return runFsck(CacheDir, Repair, Quiet);
  if (Merge)
    return runMerge(Files, JsonPath, CsvPath, CacheDir, Quiet);

  if (ModelOnly)
    Grid.Kind = JobKind::ModelOnly;
  Opts.UseCache = Reused("cache");
  Opts.ReuseProfiles = Reused("profile");
  // Disabling solve reuse is fully cold: no knob-axis grouping, and every
  // branch & bound node re-solves from scratch.
  Solver.WarmNodes = Reused("solve");

  // Probe the report paths too: a bad --json/--csv must fail now, not
  // after a multi-hour grid has run and its results are about to be lost.
  for (const std::string &Path : {JsonPath, CsvPath}) {
    if (Path.empty() || Path == "-")
      continue;
    std::ofstream Probe(Path, std::ios::app);
    if (!Probe) {
      std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                   Path.c_str());
      return 2;
    }
  }

  std::vector<JobSpec> Jobs = Grid.expand();
  if (Jobs.empty()) {
    std::fprintf(stderr, "error: empty grid\n");
    return 2;
  }
  if (ShardCount > 1) {
    auto [Begin, End] = shardRange(Jobs.size(), ShardIndex, ShardCount);
    std::vector<JobSpec> Slice(Jobs.begin() + Begin, Jobs.begin() + End);
    Jobs = std::move(Slice);
    if (!Quiet)
      std::fprintf(stderr, "shard %u/%u: jobs [%zu, %zu) of %zu\n",
                   ShardIndex, ShardCount, Begin, End,
                   Grid.jobCount());
  }

  if (DryRun) {
    std::printf("%zu job(s):\n", Jobs.size());
    for (const JobSpec &J : Jobs)
      std::printf("  %s\n", J.cacheKey().c_str());
    return 0;
  }

  // Telemetry. The campaign records into the process-wide registry (the
  // same one the deep layers use), so one --metrics snapshot carries
  // campaign.* next to mip.*/sim.*/jobqueue.*/cache.*, and the summary
  // lines below read the campaign's effort from it. The recorder installs
  // before the cache store opens so the load shows up in the trace.
  // Neither may affect reports: byte-identity on/off is CI-enforced.
  Opts.Metrics = &globalMetrics();
  std::unique_ptr<TraceRecorder> Recorder;
  if (!TracePath.empty()) {
    Recorder = std::make_unique<TraceRecorder>();
    Recorder->install();
    Recorder->setThreadName("main");
  }

  // Persistent cache: load whatever an earlier run left behind; the
  // campaign serves hits from it and inserts what it computes.
  CacheStore Store;
  if (!CacheDir.empty()) {
    if (!Store.open(CacheDir, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
    if (Store.invalidated())
      std::fprintf(stderr,
                   "cache: fingerprint changed, discarding old store\n");
    size_t Skipped = Store.skippedLines() + Store.skippedProfileLines();
    if (Skipped > 0)
      std::fprintf(stderr,
                   "cache: skipped %zu corrupt line(s): %zu result, %zu "
                   "profile\n",
                   Skipped, Store.skippedLines(), Store.skippedProfileLines());
    if (Store.crcMismatches() > 0)
      std::fprintf(stderr,
                   "cache: %zu checksum-failed line(s) quarantined "
                   "(see *.quarantine; --fsck --repair cleans up)\n",
                   Store.crcMismatches());
    if (!Store.sweptTempFiles().empty())
      std::fprintf(stderr,
                   "cache: swept %zu orphaned temp file(s) of dead "
                   "writer(s)\n",
                   Store.sweptTempFiles().size());
    Opts.Cache = &Store.cache();
    // Profiles recorded by earlier processes turn this run's simulations
    // into recosts wherever the images match.
    if (Opts.ReuseProfiles)
      Opts.Profiles = &Store.profiles();

    // Progress journal: every finished job is appended as it completes,
    // so a kill loses at most one torn line. The config token pins every
    // solver setting (any of them can move a degraded label) but not
    // --jobs, so a resume may use different parallelism.
    if (!Store.beginJournal(solverConfigToken(Opts.Base.Solver), Resume,
                            &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
    if (Resume) {
      // Replay: the interrupted run's finished jobs become cache hits —
      // failures and limit-degraded results included, because the
      // contract is "reproduce the interrupted run's report". The cache
      // serves them verbatim; save() still refuses to persist them.
      for (const JobResult &R : Store.journalEntries())
        Store.cache().insert(R.Spec.cacheKey(), R);
      std::fprintf(stderr, "resume: replayed %zu finished job(s) from %s\n",
                   Store.journalEntries().size(),
                   Store.journalPath().c_str());
      if (Store.journalSkipped() > 0)
        std::fprintf(stderr,
                     "resume: skipped %zu corrupt journal line(s)\n",
                     Store.journalSkipped());
    }
    Opts.Journal = [&Store](const JobResult &R) {
      std::string JErr;
      if (!Store.appendJournal(R, &JErr))
        std::fprintf(stderr,
                     "warning: progress journal append failed: %s\n",
                     JErr.c_str());
    };
  }

  if (Verbose)
    Opts.Progress = [](const JobResult &R, unsigned Done, unsigned Total) {
      std::fprintf(stderr, "[%u/%u] %s: %s\n", Done, Total,
                   R.Spec.cacheKey().c_str(),
                   R.ok() ? "ok" : R.Error.c_str());
    };

  CampaignResult CR = runCampaign(Jobs, Opts);

  if (!CacheDir.empty()) {
    size_t NewEntries = Store.cache().size() - Store.loadedEntries();
    if (!Store.save(&Error))
      std::fprintf(stderr, "warning: cache save failed: %s\n",
                   Error.c_str());
    std::fprintf(stderr,
                 "cache: %zu entr%s loaded, %u hit(s), %zu new "
                 "result(s) -> %s\n",
                 Store.loadedEntries(),
                 Store.loadedEntries() == 1 ? "y" : "ies",
                 CR.Summary.CacheHits, NewEntries, Store.path().c_str());
  }

  if (!Quiet) {
    std::printf("%s", campaignToTable(CR).c_str());
    std::printf("\n%u job(s): %u succeeded, %u failed, %u cache hit(s), "
                "%u unique run(s)\n",
                CR.Summary.Total, CR.Summary.Succeeded, CR.Summary.Failed,
                CR.Summary.CacheHits, CR.Summary.UniqueRuns);
    // Blame a limit only when one was set: with none, a degraded label
    // means the solver lost a proof on its own.
    bool Limited = Solver.TimeLimitMs != 0 || Solver.NodeLimit != 0 ||
                   Solver.PivotLimit != 0;
    if (CR.Summary.Degraded > 0)
      std::printf(Limited ? "%u best-effort result(s): a solver limit was "
                            "hit; their solve_status labels the truncation\n"
                          : "%u result(s) not proven optimal with no solver "
                            "limit set; their solve_status labels them\n",
                  CR.Summary.Degraded);
    // A process runs one campaign, so the registry's campaign.* totals
    // are this campaign's effort.
    MetricsRegistry &M = globalMetrics();
    auto Count = [&M](const char *Key) {
      return static_cast<unsigned long long>(M.counterValue(Key));
    };
    if (Count("campaign.sim.full_sims") + Count("campaign.sim.recosts") > 0)
      std::printf("%llu full simulation(s), %llu recost(s) from shared "
                  "profiles\n",
                  Count("campaign.sim.full_sims"),
                  Count("campaign.sim.recosts"));
    if (Count("campaign.solve.cold") + Count("campaign.solve.warm") > 0)
      std::printf("%llu extraction(s), %llu cold solve(s), %llu warm "
                  "solve(s) from neighbouring knob points\n",
                  Count("campaign.solve.extractions"),
                  Count("campaign.solve.cold"), Count("campaign.solve.warm"));
    if (Count("campaign.solve.replayed") > 0)
      std::printf("%llu solve(s) replayed from a group with an identical "
                  "model\n",
                  Count("campaign.solve.replayed"));
    if (Count("campaign.solve.dominated") > 0)
      std::printf("%llu knob point(s) settled by a looser proven optimum\n",
                  Count("campaign.solve.dominated"));
    if (CR.Summary.Succeeded > 0 && Grid.Kind == JobKind::Measure)
      std::printf("geomean energy ratio %.4f; mean energy %+.1f%%, "
                  "time %+.1f%%, power %+.1f%%\n",
                  CR.Summary.GeomeanEnergyRatio, CR.Summary.MeanEnergyPct,
                  CR.Summary.MeanTimePct, CR.Summary.MeanPowerPct);
    std::fprintf(stderr, "wall time %.2fs\n",
                 M.histogram("campaign.wall_seconds").stats().Sum);
  }

  if (!writeReports(CR, JsonPath, CsvPath))
    return 1;
  // Every requested report is durable: the journal has served its
  // purpose, and leaving it would make a later --resume replay this
  // (completed) run.
  Store.clearJournal();
  if (Recorder) {
    // The pool's threads are joined and the cache store saved, so every
    // span has closed; drain the recorder and stop tracing.
    TraceSnapshot Snap = Recorder->snapshot();
    TraceRecorder::uninstall();
    if (!writeTextFile(TracePath, traceToChromeJson(Snap), &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    if (!Quiet)
      std::fprintf(stderr, "trace: %zu event(s) -> %s\n",
                   Snap.Events.size(), TracePath.c_str());
  }
  if (!MetricsPath.empty()) {
    if (!writeTextFile(MetricsPath, globalMetrics().toJson(), &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    if (!Quiet)
      std::fprintf(stderr, "metrics -> %s\n", MetricsPath.c_str());
  }
  return CR.Summary.Failed == 0 ? 0 : 1;
}
