//===- tools/ramloc-batch.cpp - campaign batch runner -----------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// Expands a benchmark x device x knob grid into jobs and runs them on the
// campaign engine's thread pool: one command replays a whole figure's
// worth of pipeline runs in parallel. Reports are deterministic: the same
// grid produces byte-identical JSON/CSV whatever --jobs is, whether
// results came from the persistent cache, and whether the grid ran whole
// or as merged --shard parts.
//
// Usage:
//   ramloc-batch [options]
//     --benchmarks=a,b|all  BEEBS benchmarks (default: all)
//     --levels=O0,..,Os     optimisation levels (default: O2)
//     --devices=a,b|all     device registry names (default: stm32f100)
//     --rspare=N,N,...      RAM-spare axis in bytes (default: 512)
//     --xlimit=F,F,...      execution-time-limit axis (default: 1.5)
//     --freq=static,profiled  frequency-mode axis (default: static)
//     --repeat=N            kernel iterations, 0 = suite default
//     --model-only          stop at the ILP; skip simulation (with
//                           --freq=profiled the baseline still simulates
//                           once per job to collect the profile)
//     --jobs=N              worker threads (default: hardware concurrency)
//     --reuse=LIST          which reuse layers stay on (default: all):
//                           cache (persistent result cache), profile
//                           (recost shared execution profiles), solve
//                           (share the ILP across a knob axis and
//                           warm-start from neighbouring solves), and
//                           incumbent (open a group's first solve with
//                           the persisted best-known placement); layers
//                           not listed are disabled, and every layer is
//                           exact — byte-identical either way whenever
//                           every solve proves optimality (incumbent:
//                           and no distinct placements tie on modelled
//                           energy). all/none select or clear every
//                           layer at once.
//     --node-order=ORDER    branch & bound node selection: dfs (default;
//                           warm-friendliest), best-bound, or hybrid
//                           (dive until an incumbent exists, then
//                           best-bound; every order is exact)
//     --pricing=RULE        simplex pivot pricing: steepest-edge
//                           (default), dantzig, or bland — every rule is
//                           exact; reports are byte-identical only when
//                           every solve proves optimality (dantzig labels
//                           2 of the 1080 canonical configs
//                           feasible-limit that the default proves
//                           optimal)
//     --cache-dir=DIR       persistent result + profile cache: load
//                           before running, append after, so repeated
//                           runs are incremental
//     --resume              replay <cache-dir>/progress.jsonl — the
//                           journal of finished jobs an interrupted run
//                           left behind — and run only what is missing;
//                           the final report is byte-identical to the
//                           uninterrupted run at any --jobs; a journal
//                           written under other solver settings replays
//                           nothing (needs --cache-dir)
//     --time-limit-ms=N     per-solve wall-clock budget; a solve that
//                           hits it returns its best incumbent labelled
//                           feasible-limit, never silently optimal
//                           (0 = unlimited, the default)
//     --node-limit=N        per-solve branch & bound node budget, same
//                           best-effort contract (0 = unlimited)
//     --pivot-limit=N       per-solve simplex pivot budget, same
//                           best-effort contract (0 = unlimited)
//     --fault=SITE:RATE[:SEED]
//                           arm the deterministic fault injector
//                           (repeatable): each pass through SITE fails
//                           with probability RATE, decided purely by
//                           (seed, per-site call index). Sites:
//                           cache.append.short, cache.append.eio,
//                           cache.rename, cache.lock, cache.load.eio,
//                           cache.load.flip, job.abort, solver.degrade.
//                           Testing only; off by default
//     --gc-profiles         compact the profile + incumbent stores
//                           instead of running: drop corrupt/stale-
//                           fingerprint lines and fold duplicate keys,
//                           then enforce the size cap (needs --cache-dir)
//     --fsck [--repair]     verify every store file's CRC32C framing and
//                           report valid/corrupt/stale/duplicate counts,
//                           exiting non-zero on damage; with --repair,
//                           rewrite damaged files under their locks,
//                           quarantining corrupt lines (needs --cache-dir)
//     --max-profile-bytes=N with --gc-profiles: evict least-recently-
//                           appended profiles until profiles.jsonl is at
//                           most N bytes (0 = no cap, the default)
//     --shard=K/N           run only the K-th of N contiguous slices of
//                           the expanded grid (1-based)
//     --merge F1 F2 ...     combine shard JSON reports instead of running;
//                           write the merged report via --json/--csv;
//                           with --cache-dir the store is compacted
//     --diff A.json B.json  compare two reports config-by-config; exits
//                           non-zero when any metric moves more than
//                           --diff-threshold or the config sets differ
//     --diff-threshold=PCT  |delta| tolerance for --diff (default 0)
//     --json=FILE           write the JSON report ('-' = stdout)
//     --csv=FILE            write the CSV report ('-' = stdout)
//     --trace=FILE          record spans across the run (extract, solves,
//                           simulations, cache I/O, one lane per worker)
//                           and write Chrome trace_event JSON: open it in
//                           chrome://tracing or ui.perfetto.dev
//     --metrics=FILE        write a JSON snapshot of the metrics registry
//                           (solver pivots/nodes, full sims vs recosts,
//                           cache hits, queue idle time) after the run
//                           Telemetry is a side channel: reports are
//                           byte-identical with these on, off, or at any
//                           --jobs value.
//     --dry-run             print the expanded job list and exit
//     --list-devices        print the device registry and exit
//     --list-benchmarks     print the benchmark registry and exit
//     --verbose             per-job progress on stderr
//     --quiet               suppress the summary table
//     --help                print the flag summary and exit
//
//===----------------------------------------------------------------------===//

#include "beebs/Beebs.h"
#include "campaign/CacheStore.h"
#include "campaign/Campaign.h"
#include "campaign/Report.h"
#include "power/DeviceRegistry.h"
#include "support/FaultInjector.h"
#include "support/Format.h"
#include "support/Metrics.h"
#include "support/Table.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace ramloc;

namespace {

void usage(std::FILE *Out) {
  std::fprintf(
      Out,
      "usage: ramloc-batch [options]\n"
      "       ramloc-batch --merge SHARD.json... [--json=FILE] [--csv=FILE]\n"
      "                    [--cache-dir=DIR]\n"
      "       ramloc-batch --diff A.json B.json [--diff-threshold=PCT]\n"
      "       ramloc-batch --gc-profiles --cache-dir=DIR\n"
      "                    [--max-profile-bytes=N]\n"
      "       ramloc-batch --fsck [--repair] --cache-dir=DIR\n"
      "\n"
      "grid selection:\n"
      "  --benchmarks=a,b|all      BEEBS benchmarks to run (default: all)\n"
      "  --levels=O2,Os            optimization levels\n"
      "  --devices=a,b|all         target devices (see --list-devices)\n"
      "  --rspare=N,...            spare-RAM knob points, bytes\n"
      "  --xlimit=F,...            execution-time budget knob points\n"
      "  --freq=static,profiled    block-frequency estimate modes\n"
      "  --repeat=N                repeat each job N times\n"
      "  --model-only              solve placements without simulating\n"
      "\n"
      "execution:\n"
      "  --jobs=N                  campaign worker threads (0 = all cores)\n"
      "  --reuse=LIST              which reuse layers stay on (default:\n"
      "                            all): comma list of cache, profile,\n"
      "                            solve, incumbent, or all/none; layers\n"
      "                            not listed are disabled\n"
      "  --node-order=dfs|best-bound|hybrid\n"
      "                            branch & bound node selection policy\n"
      "  --pricing=RULE            simplex pivot pricing: steepest-edge\n"
      "                            (default; fewest pivots on warm chains),\n"
      "                            dantzig (textbook baseline), or bland\n"
      "                            (least-index). Every rule is exact, but\n"
      "                            reports are byte-identical only when\n"
      "                            every solve proves optimality: dantzig\n"
      "                            labels 2 of the 1080 canonical configs\n"
      "                            feasible-limit that the default proves\n"
      "                            optimal\n"
      "\n"
      "persistence and distribution:\n"
      "  --cache-dir=DIR           persistent result/profile/incumbent cache\n"
      "  --shard=K/N               run shard K of N (merge with --merge)\n"
      "  --merge                   merge shard reports (positional files)\n"
      "  --gc-profiles             garbage-collect cached profiles\n"
      "  --max-profile-bytes=N     profile cache size budget for GC\n"
      "\n"
      "robustness:\n"
      "  --resume                  replay the progress journal of an\n"
      "                            interrupted run and compute only what\n"
      "                            is missing; the report is byte-identical\n"
      "                            to the uninterrupted run at any --jobs;\n"
      "                            a journal written under other solver\n"
      "                            settings replays nothing (needs\n"
      "                            --cache-dir)\n"
      "  --time-limit-ms=N         per-solve wall-clock budget; on expiry\n"
      "                            the best incumbent is returned labelled\n"
      "                            feasible-limit (0 = unlimited)\n"
      "  --node-limit=N            per-solve branch & bound node budget\n"
      "                            (0 = unlimited)\n"
      "  --pivot-limit=N           per-solve simplex pivot budget\n"
      "                            (0 = unlimited)\n"
      "  --fsck                    verify the cache store instead of\n"
      "                            running: walk all four files (results,\n"
      "                            profiles, incumbents, progress), check\n"
      "                            every line's CRC32C frame, and report\n"
      "                            valid/corrupt/stale/duplicate counts\n"
      "                            plus swept orphaned temporaries; exits\n"
      "                            non-zero on damage (needs --cache-dir)\n"
      "  --repair                  with --fsck: rewrite each damaged file\n"
      "                            under its lock keeping only valid\n"
      "                            records (corrupt lines are preserved in\n"
      "                            <file>.quarantine), then verify the\n"
      "                            store walks clean\n"
      "  --fault=SITE:RATE[:SEED]  arm the deterministic fault injector at\n"
      "                            SITE (repeatable; testing only)\n"
      "\n"
      "reports and diagnostics:\n"
      "  --json=FILE               write the JSON report\n"
      "  --csv=FILE                write the CSV report\n"
      "  --diff                    compare two reports (positional files)\n"
      "  --diff-threshold=PCT      regression threshold for --diff\n"
      "  --trace=FILE              write a Chrome trace_event JSON trace\n"
      "  --metrics=FILE            write a metrics-registry snapshot\n"
      "  --dry-run                 list the job grid without running it\n"
      "  --list-devices            print the device registry and exit\n"
      "  --list-benchmarks         print the benchmark suite and exit\n"
      "  --verbose                 per-job progress output\n"
      "  --quiet                   suppress the summary\n"
      "  --help                    print this help and exit\n");
}

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (Start <= S.size()) {
    size_t Comma = S.find(',', Start);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma > Start)
      Out.push_back(S.substr(Start, Comma - Start));
    Start = Comma + 1;
  }
  return Out;
}

/// Strict numeric parsing: the whole token must be consumed, so a typo
/// fails here instead of silently running a grid the user never asked for.
bool parseUnsigned(const std::string &S, unsigned &Out) {
  if (S.empty())
    return false;
  char *End = nullptr;
  unsigned long V = std::strtoul(S.c_str(), &End, 0);
  if (*End != '\0' || V > 0xFFFFFFFFul)
    return false;
  Out = static_cast<unsigned>(V);
  return true;
}

/// 64-bit variant for byte counts: profile stores grown by many
/// appenders can legitimately exceed 4 GiB.
bool parseUnsigned64(const std::string &S, uint64_t &Out) {
  if (S.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S.c_str(), &End, 0);
  if (*End != '\0' || errno == ERANGE)
    return false;
  Out = V;
  return true;
}

bool parseDouble(const std::string &S, double &Out) {
  if (S.empty())
    return false;
  char *End = nullptr;
  Out = std::strtod(S.c_str(), &End);
  return *End == '\0';
}

/// "K/N" with 1 <= K <= N.
bool parseShard(const std::string &S, unsigned &Index, unsigned &Count) {
  size_t Slash = S.find('/');
  if (Slash == std::string::npos)
    return false;
  return parseUnsigned(S.substr(0, Slash), Index) &&
         parseUnsigned(S.substr(Slash + 1), Count) && Index >= 1 &&
         Count >= 1 && Index <= Count;
}

/// Merge mode: parse the shard reports, concatenate in argument order,
/// recompute the summary, and emit exactly what the unsharded run would
/// have written.
int runMerge(const std::vector<std::string> &Files,
             const std::string &JsonPath, const std::string &CsvPath,
             bool Quiet) {
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
  if (!JsonPath.empty()) {
    std::string Doc = campaignToJson(CR);
    if (JsonPath == "-")
      std::fputs(Doc.c_str(), stdout);
    else if (!writeTextFile(JsonPath, Doc, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
  }
  if (!CsvPath.empty()) {
    std::string Doc = campaignToCsv(CR);
    if (CsvPath == "-")
      std::fputs(Doc.c_str(), stdout);
    else if (!writeTextFile(CsvPath, Doc, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
  }
  return CR.Summary.Failed == 0 ? 0 : 1;
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

    // The compared metric set is deliberately closed over *results*.
    // Solver-effort counters (extractions, cold/warm solves, incumbent
    // seeds, pivot counts) are provenance, not results: a node-order or
    // seeding change legitimately moves them while every measured and
    // modelled quantity stays bit-identical, so they must never be able
    // to report drift — reports carrying a diagnostic "solver" block
    // parse fine and diff clean here.
    struct Metric {
      const char *Name;
      double Old, New;
      bool Active;
    };
    bool Measured = A.Spec.Kind == JobKind::Measure;
    const Metric Metrics[] = {
        {"base.energy_mj", A.BaseEnergyMilliJoules,
         B.BaseEnergyMilliJoules, Measured},
        {"opt.energy_mj", A.OptEnergyMilliJoules, B.OptEnergyMilliJoules,
         Measured},
        {"base.seconds", A.BaseSeconds, B.BaseSeconds, Measured},
        {"opt.seconds", A.OptSeconds, B.OptSeconds, Measured},
        {"base.cycles", static_cast<double>(A.BaseCycles),
         static_cast<double>(B.BaseCycles), Measured},
        {"opt.cycles", static_cast<double>(A.OptCycles),
         static_cast<double>(B.OptCycles), Measured},
        {"model.base_energy_mj", A.PredictedBaseEnergyMilliJoules,
         B.PredictedBaseEnergyMilliJoules, true},
        {"model.opt_energy_mj", A.PredictedOptEnergyMilliJoules,
         B.PredictedOptEnergyMilliJoules, true},
        {"model.base_cycles", A.PredictedBaseCycles,
         B.PredictedBaseCycles, true},
        {"model.opt_cycles", A.PredictedOptCycles, B.PredictedOptCycles,
         true},
        {"model.ram_bytes", static_cast<double>(A.RamBytes),
         static_cast<double>(B.RamBytes), true},
        {"model.moved_blocks", static_cast<double>(A.MovedBlocks),
         static_cast<double>(B.MovedBlocks), true},
    };
    for (const Metric &M : Metrics) {
      if (!M.Active)
        continue;
      double Delta = metricDeltaPct(M.Old, M.New);
      if (Delta == 0.0)
        continue;
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

} // namespace

int main(int Argc, char **Argv) {
  GridSpec Grid;
  Grid.Benchmarks = beebsNames();
  CampaignOptions Opts;
  Opts.Jobs = 0; // hardware concurrency
  std::string JsonPath, CsvPath, CacheDir, TracePath, MetricsPath;
  std::vector<std::string> MergeFiles, DiffFiles;
  unsigned ShardIndex = 1, ShardCount = 1;
  uint64_t MaxProfileBytes = 0;
  double DiffThreshold = 0.0;
  bool DryRun = false, Verbose = false, Quiet = false, Merge = false,
       Diff = false, GcProfiles = false, Resume = false, Fsck = false,
       FsckRepair = false;
  // Outlives every worker thread; installs only when --fault arms a site.
  FaultInjector Faults;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto val = [&Arg](size_t Prefix) { return Arg.substr(Prefix); };
    if (Arg.rfind("--benchmarks=", 0) == 0) {
      std::string V = val(13);
      Grid.Benchmarks = V == "all" ? beebsNames() : splitList(V);
    } else if (Arg.rfind("--levels=", 0) == 0) {
      Grid.Levels.clear();
      for (const std::string &Name : splitList(val(9))) {
        OptLevel L;
        if (!optLevelFromName(Name, L)) {
          std::fprintf(stderr, "error: unknown level '%s'\n", Name.c_str());
          return 2;
        }
        Grid.Levels.push_back(L);
      }
    } else if (Arg.rfind("--devices=", 0) == 0) {
      std::string V = val(10);
      Grid.Devices = V == "all" ? deviceNames() : splitList(V);
    } else if (Arg.rfind("--rspare=", 0) == 0) {
      Grid.RsparePoints.clear();
      for (const std::string &N : splitList(val(9))) {
        unsigned V;
        if (!parseUnsigned(N, V)) {
          std::fprintf(stderr, "error: bad --rspare value '%s'\n",
                       N.c_str());
          return 2;
        }
        Grid.RsparePoints.push_back(V);
      }
    } else if (Arg.rfind("--xlimit=", 0) == 0) {
      Grid.XlimitPoints.clear();
      for (const std::string &N : splitList(val(9))) {
        double V;
        if (!parseDouble(N, V)) {
          std::fprintf(stderr, "error: bad --xlimit value '%s'\n",
                       N.c_str());
          return 2;
        }
        Grid.XlimitPoints.push_back(V);
      }
    } else if (Arg.rfind("--freq=", 0) == 0) {
      Grid.FreqModes.clear();
      for (const std::string &Name : splitList(val(7))) {
        if (Name == "static")
          Grid.FreqModes.push_back(FreqMode::Static);
        else if (Name == "profiled")
          Grid.FreqModes.push_back(FreqMode::Profiled);
        else {
          std::fprintf(stderr, "error: unknown freq mode '%s'\n",
                       Name.c_str());
          return 2;
        }
      }
    } else if (Arg.rfind("--repeat=", 0) == 0) {
      if (!parseUnsigned(val(9), Grid.Repeat)) {
        std::fprintf(stderr, "error: bad --repeat value '%s'\n",
                     val(9).c_str());
        return 2;
      }
    } else if (Arg == "--model-only") {
      Grid.Kind = JobKind::ModelOnly;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseUnsigned(val(7), Opts.Jobs)) {
        std::fprintf(stderr, "error: bad --jobs value '%s'\n",
                     val(7).c_str());
        return 2;
      }
    } else if (Arg.rfind("--reuse=", 0) == 0) {
      bool Cache = false, Profile = false, Solve = false, Incumbent = false;
      bool OK = true;
      for (const std::string &Tok : splitList(val(8))) {
        if (Tok == "cache")
          Cache = true;
        else if (Tok == "profile")
          Profile = true;
        else if (Tok == "solve")
          Solve = true;
        else if (Tok == "incumbent")
          Incumbent = true;
        else if (Tok == "all")
          Cache = Profile = Solve = Incumbent = true;
        else if (Tok == "none")
          ; // explicit empty set
        else {
          std::fprintf(stderr,
                       "error: unknown --reuse layer '%s' (want cache, "
                       "profile, solve, incumbent, all or none)\n",
                       Tok.c_str());
          OK = false;
        }
      }
      if (!OK)
        return 2;
      Opts.UseCache = Cache;
      Opts.ReuseProfiles = Profile;
      // Disabling solve reuse is fully cold: no knob-axis grouping, and
      // every branch & bound node re-solves from scratch (which also
      // leaves incumbent seeds unread — they ride on the warm state).
      Opts.ReuseSolves = Solve;
      Opts.Base.Solver.WarmNodes = Solve;
      Opts.SeedIncumbents = Incumbent;
    } else if (Arg.rfind("--node-order=", 0) == 0) {
      if (!nodeOrderFromName(val(13), Opts.Base.Solver.Order)) {
        std::fprintf(stderr, "error: unknown node order '%s'\n",
                     val(13).c_str());
        return 2;
      }
    } else if (Arg.rfind("--pricing=", 0) == 0) {
      if (!pricingFromName(val(10), Opts.Base.Solver.PricingRule)) {
        std::fprintf(stderr, "error: unknown pricing rule '%s'\n",
                     val(10).c_str());
        return 2;
      }
    } else if (Arg.rfind("--time-limit-ms=", 0) == 0) {
      if (!parseUnsigned(val(16), Opts.Base.Solver.TimeLimitMs)) {
        std::fprintf(stderr, "error: bad --time-limit-ms value '%s'\n",
                     val(16).c_str());
        return 2;
      }
    } else if (Arg.rfind("--node-limit=", 0) == 0) {
      if (!parseUnsigned64(val(13), Opts.Base.Solver.NodeLimit)) {
        std::fprintf(stderr, "error: bad --node-limit value '%s'\n",
                     val(13).c_str());
        return 2;
      }
    } else if (Arg.rfind("--pivot-limit=", 0) == 0) {
      if (!parseUnsigned64(val(14), Opts.Base.Solver.PivotLimit)) {
        std::fprintf(stderr, "error: bad --pivot-limit value '%s'\n",
                     val(14).c_str());
        return 2;
      }
    } else if (Arg == "--resume") {
      Resume = true;
    } else if (Arg.rfind("--fault=", 0) == 0) {
      std::string Error;
      if (!Faults.armSpec(val(8), Error)) {
        std::fprintf(stderr, "error: bad --fault spec '%s': %s\n",
                     val(8).c_str(), Error.c_str());
        return 2;
      }
    } else if (Arg == "--help") {
      usage(stdout);
      return 0;
    } else if (Arg == "--gc-profiles") {
      GcProfiles = true;
    } else if (Arg == "--fsck") {
      Fsck = true;
    } else if (Arg == "--repair") {
      FsckRepair = true;
    } else if (Arg.rfind("--max-profile-bytes=", 0) == 0) {
      if (!parseUnsigned64(val(20), MaxProfileBytes)) {
        std::fprintf(stderr, "error: bad --max-profile-bytes value '%s'\n",
                     val(20).c_str());
        return 2;
      }
    } else if (Arg.rfind("--cache-dir=", 0) == 0) {
      CacheDir = val(12);
      if (CacheDir.empty()) {
        std::fprintf(stderr, "error: empty --cache-dir\n");
        return 2;
      }
    } else if (Arg.rfind("--shard=", 0) == 0) {
      if (!parseShard(val(8), ShardIndex, ShardCount)) {
        std::fprintf(stderr,
                     "error: bad --shard value '%s' (want K/N, 1<=K<=N)\n",
                     val(8).c_str());
        return 2;
      }
    } else if (Arg == "--merge") {
      Merge = true;
    } else if (Arg == "--diff") {
      Diff = true;
    } else if (Arg.rfind("--diff-threshold=", 0) == 0) {
      if (!parseDouble(val(17), DiffThreshold) || DiffThreshold < 0) {
        std::fprintf(stderr, "error: bad --diff-threshold value '%s'\n",
                     val(17).c_str());
        return 2;
      }
    } else if (Arg.rfind("--json=", 0) == 0) {
      JsonPath = val(7);
    } else if (Arg.rfind("--csv=", 0) == 0) {
      CsvPath = val(6);
    } else if (Arg.rfind("--trace=", 0) == 0) {
      TracePath = val(8);
      if (TracePath.empty()) {
        std::fprintf(stderr, "error: empty --trace path\n");
        return 2;
      }
    } else if (Arg.rfind("--metrics=", 0) == 0) {
      MetricsPath = val(10);
      if (MetricsPath.empty()) {
        std::fprintf(stderr, "error: empty --metrics path\n");
        return 2;
      }
    } else if (Arg == "--dry-run") {
      DryRun = true;
    } else if (Arg == "--list-devices") {
      Table T({"device", "clock", "wait states", "sleep", "description"});
      for (const DeviceInfo &D : deviceRegistry())
        T.addRow({D.Name, formatString("%.0f MHz", D.Model.ClockHz / 1e6),
                  formatString("%u", D.Timing.FlashWaitStates),
                  formatString("%.1f mW", D.Model.SleepMilliWatts),
                  D.Description});
      std::printf("%s", T.render().c_str());
      return 0;
    } else if (Arg == "--list-benchmarks") {
      for (const BeebsInfo &Info : beebsSuite())
        std::printf("%s\n", Info.Name);
      return 0;
    } else if (Arg == "--verbose") {
      Verbose = true;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg.rfind("--", 0) != 0 && Diff) {
      DiffFiles.push_back(Arg);
    } else if (Arg.rfind("--", 0) != 0 && Merge) {
      MergeFiles.push_back(Arg);
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  if (Resume && CacheDir.empty()) {
    std::fprintf(stderr, "error: --resume needs --cache-dir\n");
    return 2;
  }
  // Install before any I/O so injection covers the initial cache load.
  if (!Faults.armedSites().empty())
    Faults.install();

  if (Diff)
    return runDiff(DiffFiles, DiffThreshold, Quiet);

  if (FsckRepair && !Fsck) {
    std::fprintf(stderr, "error: --repair needs --fsck\n");
    return 2;
  }
  if (Fsck) {
    if (CacheDir.empty()) {
      std::fprintf(stderr, "error: --fsck needs --cache-dir\n");
      return 2;
    }
    CacheStore Store;
    std::string Error;
    if (!Store.open(CacheDir, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    CacheStore::FsckReport Report;
    if (!Store.fsck(FsckRepair, Report, &Error)) {
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
    if (!FsckRepair) {
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

  if (GcProfiles) {
    if (CacheDir.empty()) {
      std::fprintf(stderr, "error: --gc-profiles needs --cache-dir\n");
      return 2;
    }
    CacheStore Store;
    CacheStore::ProfileGcStats Stats;
    std::string Error;
    if (!Store.open(CacheDir, &Error) ||
        !Store.gcProfiles(MaxProfileBytes, Stats, &Error) ||
        !Store.compactIncumbents(&Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    if (!Quiet) {
      std::fprintf(stderr,
                   "profiles: %zu kept, %zu stale/duplicate dropped, %zu "
                   "evicted over cap; %llu -> %llu bytes\n",
                   Stats.Kept, Stats.DroppedInvalid, Stats.Evicted,
                   static_cast<unsigned long long>(Stats.BytesBefore),
                   static_cast<unsigned long long>(Stats.BytesAfter));
      std::fprintf(stderr, "incumbents: %zu kept\n",
                   Store.incumbents().size());
    }
    return 0;
  }

  if (Merge) {
    int Rc = runMerge(MergeFiles, JsonPath, CsvPath, Quiet);
    if (Rc == 0 && !CacheDir.empty()) {
      // Merge is the natural compaction point: shard workers appended
      // into the shared store; fold their lines into one sorted file.
      CacheStore Store;
      std::string Error;
      if (!Store.open(CacheDir, &Error) || !Store.compact(&Error))
        std::fprintf(stderr, "warning: cache compaction failed: %s\n",
                     Error.c_str());
      else if (!Quiet)
        std::fprintf(stderr, "cache: compacted %zu result(s), %zu "
                             "profile(s)\n",
                     Store.loadedEntries(), Store.loadedProfiles());
    }
    return Rc;
  }

  // Validate axis names up front so a typo fails before a long run.
  for (const std::string &B : Grid.Benchmarks)
    if (!isKnownBeebs(B)) {
      std::fprintf(stderr, "error: unknown benchmark '%s'\n", B.c_str());
      return 2;
    }
  for (const std::string &D : Grid.Devices)
    if (!findDevice(D)) {
      std::fprintf(stderr, "error: unknown device '%s'\n", D.c_str());
      return 2;
    }

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
  // campaign.* next to mip.*/sim.*/jobqueue.*/cache.* — and the end-of-
  // run counters table below reads from it too. The recorder installs
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
    std::string Error;
    if (!Store.open(CacheDir, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 2;
    }
    if (Store.invalidated())
      std::fprintf(stderr,
                   "cache: fingerprint changed, discarding old store\n");
    if (Store.skippedLines() + Store.skippedProfileLines() > 0)
      std::fprintf(stderr, "cache: skipped %zu corrupt line(s)\n",
                   Store.skippedLines() + Store.skippedProfileLines());
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
    // Incumbents always collect (offers keep the store fresh); --reuse
    // without 'incumbent' only stops them opening new searches.
    Opts.Incumbents = &Store.incumbents();

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
    std::string Error;
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
    if (CR.Summary.Degraded > 0)
      std::printf("%u best-effort result(s): a solver limit was hit; "
                  "their solve_status labels the truncation\n",
                  CR.Summary.Degraded);
    if (CR.Summary.FullSims + CR.Summary.Recosts > 0)
      std::printf("%llu full simulation(s), %llu recost(s) from shared "
                  "profiles\n",
                  static_cast<unsigned long long>(CR.Summary.FullSims),
                  static_cast<unsigned long long>(CR.Summary.Recosts));
    if (CR.Summary.ColdSolves + CR.Summary.WarmSolves > 0)
      std::printf("%llu extraction(s), %llu cold solve(s), %llu warm "
                  "solve(s) from neighbouring knob points\n",
                  static_cast<unsigned long long>(CR.Summary.Extractions),
                  static_cast<unsigned long long>(CR.Summary.ColdSolves),
                  static_cast<unsigned long long>(CR.Summary.WarmSolves));
    if (CR.Summary.IncumbentSeeds > 0)
      std::printf("%llu solve group(s) seeded from persisted "
                  "incumbents\n",
                  static_cast<unsigned long long>(
                      CR.Summary.IncumbentSeeds));
    if (CR.Summary.Succeeded > 0 && Grid.Kind == JobKind::Measure)
      std::printf("geomean energy ratio %.4f; mean energy %+.1f%%, "
                  "time %+.1f%%, power %+.1f%%\n",
                  CR.Summary.GeomeanEnergyRatio, CR.Summary.MeanEnergyPct,
                  CR.Summary.MeanTimePct, CR.Summary.MeanPowerPct);
    // The counters table reads the metrics registry — the same snapshot
    // --metrics serializes — not separately-kept Summary state; the two
    // cannot disagree because the Summary fields are views over it.
    {
      MetricsRegistry &M = globalMetrics();
      Table C({"counter", "value"});
      auto Row = [&C, &M](const char *Key) {
        C.addRow({Key, formatString("%llu", static_cast<unsigned long long>(
                                                M.counterValue(Key)))});
      };
      Row("campaign.sim.full_sims");
      Row("campaign.sim.recosts");
      Row("campaign.solve.extractions");
      Row("campaign.solve.cold");
      Row("campaign.solve.warm");
      Row("campaign.solve.incumbent_seeds");
      std::printf("%s", C.render().c_str());
    }
    std::fprintf(stderr, "wall time %.2fs\n", CR.Summary.WallSeconds);
  }

  std::string Error;
  if (!JsonPath.empty()) {
    std::string Doc = campaignToJson(CR);
    if (JsonPath == "-")
      std::fputs(Doc.c_str(), stdout);
    else if (!writeTextFile(JsonPath, Doc, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
  }
  if (!CsvPath.empty()) {
    std::string Doc = campaignToCsv(CR);
    if (CsvPath == "-")
      std::fputs(Doc.c_str(), stdout);
    else if (!writeTextFile(CsvPath, Doc, &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
  }
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
