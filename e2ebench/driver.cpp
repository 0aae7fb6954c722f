//===- e2ebench/driver.cpp - end-to-end campaign benchmark ---------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// Runs one workload — a campaign grid — through the public runCampaign
// API as a closed loop with a single caller: submit the whole grid, wait
// for the report, repeat until the time budget is spent. Every pass
// starts from fresh in-memory caches (and, for store-resweep, from a
// fresh copy of a populated cache store).
//
//   e2e_driver --workload NAME --seed N --seconds S --trace 0|1
//              --reference DIR --out DIR
//
// With --trace 0 it reports the end-to-end metrics and checks the
// outputs: report bytes equal across passes, rows equal to the
// workload's reference, --jobs byte identity, and ILP optima against
// exhaustive enumeration. With --trace 1 it alternates untraced and
// traced passes and reports the per-layer ledger (span self times,
// layer counters, and the stages timed from outside by replaying their
// public functions on the same inputs). The last line of stdout is one
// JSON object; everything else goes to stderr and to files under --out.
//
//===----------------------------------------------------------------------===//

#include "ledger.h"

#include "beebs/Beebs.h"
#include "campaign/CacheStore.h"
#include "campaign/Campaign.h"
#include "campaign/Report.h"
#include "core/Enumerator.h"
#include "core/Pipeline.h"
#include "mir/Verifier.h"
#include "power/DeviceRegistry.h"
#include "support/Format.h"
#include "support/Hash.h"
#include "support/Metrics.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/Trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace ramloc;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "e2e_driver: %s\n", Msg.c_str());
  std::exit(2);
}

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Tv = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) / 1e6;
  };
  return Tv(U.ru_utime) + Tv(U.ru_stime);
}

/// This process image's peak resident set. Read from VmHWM rather than
/// getrusage's ru_maxrss, which Linux carries across exec and so would
/// report the launching Python process when that was larger.
double peakRssMb() {
  std::string Status, Error;
  if (!readTextFile("/proc/self/status", Status, &Error))
    die("peak RSS: " + Error);
  size_t At = Status.find("VmHWM:");
  if (At == std::string::npos)
    die("peak RSS: no VmHWM in /proc/self/status");
  return std::strtod(Status.c_str() + At + 6, nullptr) / 1024.0; // kB
}

//===--- Workloads -----------------------------------------------------===//

/// One workload: the grid a pass submits and how it is run.
struct Workload {
  std::string Name;
  std::vector<JobSpec> Jobs;
  unsigned Threads = 1;
  /// Passes run against a copy of a store populated in set-up.
  bool UsesStore = false;
  /// Golden CSV under --reference; empty when the reference is computed.
  std::string ReferenceFile;
};

/// The ROADMAP's canonical grid: 10 benchmarks x O1,O2 x 9 devices x
/// Rspare 256,512,1024 x Xlimit 1.2,1.5 = 1080 Measure configs.
GridSpec canonicalGrid() {
  GridSpec G;
  G.Benchmarks = beebsNames();
  G.Levels = {OptLevel::O1, OptLevel::O2};
  G.Devices = deviceNames();
  G.RsparePoints = {256, 512, 1024};
  G.XlimitPoints = {1.2, 1.5};
  return G;
}

/// The worker count of grid-measure-par and of the --jobs identity check.
unsigned parallelJobs() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

Workload makeWorkload(const std::string &Name, uint64_t Seed) {
  Workload W;
  W.Name = Name;
  if (Name == "grid-measure" || Name == "grid-measure-par") {
    W.Jobs = canonicalGrid().expand();
    W.ReferenceFile = "grid-measure.csv";
    if (Name == "grid-measure-par")
      W.Threads = parallelJobs();
  } else if (Name == "grid-tight-model") {
    GridSpec G;
    G.Benchmarks = beebsNames();
    G.Levels = {OptLevel::O1, OptLevel::O2};
    G.Devices = {"stm32f100"};
    G.RsparePoints = {128, 256, 512, 1024};
    G.XlimitPoints = {1.1, 1.2, 1.5};
    G.Kind = JobKind::ModelOnly;
    W.Jobs = G.expand();
    W.ReferenceFile = "grid-tight-model.csv";
  } else if (Name == "store-resweep") {
    // Knob points the populated store has never seen, submitted with the
    // benchmarks in a seeded order. The points stay fixed because each
    // draw of knobs has its own energy ratio and its own number of full
    // simulations (smaller Rspare adds both and feasible-limit labels),
    // which would make run-to-run spread a property of the seed.
    GridSpec G = canonicalGrid();
    G.RsparePoints = {384, 768};
    G.XlimitPoints = {1.3};
    SplitMix64 Rng(Seed);
    for (size_t I = G.Benchmarks.size(); I > 1; --I)
      std::swap(G.Benchmarks[I - 1], G.Benchmarks[Rng.nextBelow(I)]);
    W.Jobs = G.expand();
    W.UsesStore = true;
  } else {
    die("unknown workload '" + Name + "'");
  }
  return W;
}

//===--- One pass ------------------------------------------------------===//

struct Paths {
  fs::path Reference;
  fs::path Out;
  fs::path storeSeed() const { return Out / "store-seed"; }
  fs::path storePass() const { return Out / "store-pass"; }
};

struct PassResult {
  double WallS = 0.0;
  double CpuS = 0.0;
  /// The runCampaign call alone, without store I/O and report writing.
  double CampaignWallS = 0.0;
  double CampaignCpuS = 0.0;
  CampaignResult CR;
  std::string Json;
  std::string Csv;
  uint64_t StoreBytes = 0;
};

uint64_t dirBytes(const fs::path &Dir) {
  uint64_t N = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    if (E.is_regular_file())
      N += E.file_size();
  return N;
}

/// Opens the store at \p Dir and points \p Opts at its layers, the way
/// `ramloc-batch --cache-dir` does (progress journal included).
void attachStore(CacheStore &Store, const fs::path &Dir,
                 CampaignOptions &Opts) {
  std::string Error;
  if (!Store.open(Dir.string(), &Error))
    die("cache store: " + Error);
  Opts.Cache = &Store.cache();
  Opts.Profiles = &Store.profiles();
  Opts.Incumbents = &Store.incumbents();
  const SolverConfig &S = Opts.Base.Solver;
  std::string Token = formatString(
      "limits:t%u:n%llu:p%llu", S.TimeLimitMs,
      static_cast<unsigned long long>(S.NodeLimit),
      static_cast<unsigned long long>(S.PivotLimit));
  if (!Store.beginJournal(Token, /*Resume=*/false, &Error))
    die("cache journal: " + Error);
  Opts.Journal = [&Store](const JobResult &R) {
    TraceSpan Span("journal.append", "bench");
    std::string JErr;
    if (!Store.appendJournal(R, &JErr))
      die("journal append: " + JErr);
  };
}

void saveStore(CacheStore &Store) {
  std::string Error;
  if (!Store.save(&Error))
    die("cache save: " + Error);
  Store.clearJournal();
}

/// Fills a fresh store by running the canonical grid once.
void populateStore(const fs::path &Dir) {
  fs::remove_all(Dir);
  CacheStore Store;
  CampaignOptions Opts;
  attachStore(Store, Dir, Opts);
  CampaignResult CR = runCampaign(canonicalGrid().expand(), Opts);
  if (CR.Summary.Failed != 0)
    die("store population: failed configs");
  saveStore(Store);
}

/// One closed-loop pass: submit the whole grid, wait, write the report.
PassResult runPass(const Workload &W, const Paths &P, unsigned Threads) {
  if (W.UsesStore) {
    fs::remove_all(P.storePass());
    fs::copy(P.storeSeed(), P.storePass(), fs::copy_options::recursive);
  }
  PassResult R;
  Clock::time_point T0 = Clock::now();
  double Cpu0 = cpuSeconds();
  {
    TraceSpan PassSpan("pass", "bench");
    CampaignOptions Opts;
    Opts.Jobs = Threads;
    Opts.Metrics = &globalMetrics();
    CacheStore Store;
    if (W.UsesStore)
      attachStore(Store, P.storePass(), Opts);
    Clock::time_point C0 = Clock::now();
    double CampaignCpu0 = cpuSeconds();
    R.CR = runCampaign(W.Jobs, Opts);
    R.CampaignCpuS = cpuSeconds() - CampaignCpu0;
    R.CampaignWallS = secondsSince(C0);
    if (W.UsesStore)
      saveStore(Store);
    TraceSpan ReportSpan("report", "bench");
    R.Json = campaignToJson(R.CR);
    R.Csv = campaignToCsv(R.CR);
  }
  R.CpuS = cpuSeconds() - Cpu0;
  R.WallS = secondsSince(T0);
  if (W.UsesStore)
    R.StoreBytes = dirBytes(P.storePass());
  return R;
}

//===--- Set-up --------------------------------------------------------===//

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  size_t Start = 0;
  while (Start < Text.size()) {
    size_t End = Text.find('\n', Start);
    if (End == std::string::npos)
      End = Text.size();
    Lines.push_back(Text.substr(Start, End - Start));
    Start = End + 1;
  }
  return Lines;
}

/// Everything a run needs before its first timed pass.
struct Inputs {
  Workload W;
  /// Reference CSV lines (header first); empty until computed.
  std::vector<std::string> Reference;
};

/// Generates the inputs from the seed, loads the reference rows,
/// populates the store, and runs one untimed warm-up pass so lazy
/// initialisation and allocator growth finish before timing.
Inputs setUp(const std::string &Name, uint64_t Seed, const Paths &P) {
  Inputs In;
  In.W = makeWorkload(Name, Seed);
  if (!In.W.ReferenceFile.empty()) {
    std::string Text, Error;
    if (!readTextFile((P.Reference / In.W.ReferenceFile).string(), Text,
                      &Error))
      die("reference: " + Error);
    In.Reference = splitLines(Text);
  }
  if (In.W.UsesStore)
    populateStore(P.storeSeed());
  runPass(In.W, P, In.W.Threads);
  return In;
}

//===--- Checks --------------------------------------------------------===//

/// Per config: true when the job failed or its CSV row differs from the
/// reference row.
std::vector<bool> failedConfigs(const PassResult &R,
                                const std::vector<std::string> &Reference) {
  std::vector<std::string> Rows = splitLines(R.Csv);
  std::vector<bool> Failed(R.CR.Results.size(), false);
  for (size_t I = 0; I != Failed.size(); ++I) {
    bool RowOk = Rows.size() == Reference.size() && I + 1 < Rows.size() &&
                 Rows[I + 1] == Reference[I + 1];
    Failed[I] = !R.CR.Results[I].ok() || !RowOk;
  }
  return Failed;
}

/// The paper's headline number: geomean of optimized / base energy —
/// measured on Measure configs, predicted on model-only ones.
double energyRatio(const CampaignResult &CR) {
  std::vector<double> Ratios;
  for (const JobResult &J : CR.Results) {
    if (!J.ok())
      continue;
    if (J.Spec.Kind == JobKind::Measure && J.BaseEnergyMilliJoules > 0)
      Ratios.push_back(J.OptEnergyMilliJoules / J.BaseEnergyMilliJoules);
    else if (J.Spec.Kind == JobKind::ModelOnly &&
             J.PredictedBaseEnergyMilliJoules > 0)
      Ratios.push_back(J.PredictedOptEnergyMilliJoules /
                       J.PredictedBaseEnergyMilliJoules);
  }
  return Ratios.empty() ? 1.0 : geomean(Ratios);
}

/// The pipeline options runSolveGroup derives for \p Spec's group.
PipelineOptions groupOptions(const JobSpec &Spec) {
  const DeviceInfo *Dev = findDevice(Spec.Device);
  if (!Dev)
    die("unknown device '" + Spec.Device + "'");
  PipelineOptions Opts;
  Opts.Knobs.RspareBytes = Spec.RspareBytes;
  Opts.Knobs.Xlimit = Spec.Xlimit;
  Opts.Power = Dev->Model;
  Opts.Sim.Timing = Dev->Timing;
  Opts.Extract.Timing = Dev->Timing;
  return Opts;
}

/// Jobs grouped by solve group, in first-appearance order.
std::vector<std::vector<size_t>> solveGroups(const std::vector<JobSpec> &Jobs) {
  std::vector<std::vector<size_t>> Groups;
  std::map<std::string, size_t> Index;
  for (size_t I = 0; I != Jobs.size(); ++I) {
    auto [It, New] = Index.emplace(Jobs[I].solveGroupKey(), Groups.size());
    if (New)
      Groups.emplace_back();
    Groups[It->second].push_back(I);
  }
  return Groups;
}

struct EnumCheck {
  unsigned ModelsChecked = 0, ModelsSkipped = 0;
  unsigned Placements = 0, Mismatches = 0;
};

/// Every proven-optimal placement whose model has at most \p MaxBlocks
/// movable blocks must reach the model energy of the exhaustive optimum.
EnumCheck checkAgainstEnumerator(const CampaignResult &CR,
                                 unsigned MaxBlocks) {
  EnumCheck C;
  std::vector<JobSpec> Specs;
  for (const JobResult &J : CR.Results)
    Specs.push_back(J.Spec);
  for (const std::vector<size_t> &Group : solveGroups(Specs)) {
    const JobSpec &First = Specs[Group.front()];
    PipelineOptions Opts = groupOptions(First);
    Module M = buildBeebs(First.Benchmark, First.Level, First.Repeat);
    ExtractedModule EM = extractModule(M, Opts, /*NeedBaseline=*/false);
    if (!EM.ok())
      die("enumerator check: " + EM.Error);
    std::vector<unsigned> Candidates;
    for (unsigned B = 0; B != EM.MP.numBlocks(); ++B)
      if (EM.MP.Blocks[B].Movable)
        Candidates.push_back(B);
    if (Candidates.size() > MaxBlocks) {
      ++C.ModelsSkipped;
      continue;
    }
    ++C.ModelsChecked;
    std::vector<EnumPoint> Points = enumerateSolutions(EM.MP, Candidates);
    double BaseCycles =
        evaluateAssignment(EM.MP, Assignment(EM.MP.numBlocks(), false)).Cycles;
    for (size_t I : Group) {
      const JobResult &J = CR.Results[I];
      if (!J.ok() || J.SolveOutcome != SolveStatus::Optimal)
        continue;
      ModelKnobs Knobs = Opts.Knobs;
      Knobs.RspareBytes = J.Spec.RspareBytes;
      Knobs.Xlimit = J.Spec.Xlimit;
      int Best = bestFeasiblePoint(Points, BaseCycles, Knobs);
      double Want = Best < 0 ? NAN
                             : Points[static_cast<size_t>(Best)]
                                   .Estimate.EnergyMilliJoules;
      ++C.Placements;
      if (!(std::fabs(J.PredictedOptEnergyMilliJoules - Want) <=
            1e-9 * std::fabs(Want)))
        ++C.Mismatches;
    }
  }
  return C;
}

//===--- Outside-timed stages ------------------------------------------===//

/// Replays the stages the program has no span for — codegen, verify,
/// link, fingerprint, instrument — by calling their public functions on
/// the inputs the campaign itself used: per solve group one module build
/// and verify (plus the baseline link and fingerprint on Measure grids),
/// then per distinct optimal placement one applyPlacement, verify, link
/// and fingerprint. Every call is timed and appended to \p Events as a
/// trace event on thread \p Tid, back to back from \p StartNs.
std::map<std::string, e2e::OutsideStage>
replayOutsideStages(const std::vector<JobSpec> &Jobs,
                    std::vector<TraceEvent> &Events, unsigned Tid,
                    uint64_t StartNs) {
  std::map<std::string, e2e::OutsideStage> Out;
  uint64_t Cursor = StartNs;
  auto timed = [&](const char *Stage, const std::function<void()> &Call) {
    Clock::time_point T0 = Clock::now();
    Call();
    uint64_t Ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             T0)
            .count());
    e2e::OutsideStage &S = Out[Stage];
    ++S.Calls;
    S.Ms += static_cast<double>(Ns) / 1e6;
    TraceEvent E;
    E.Name = Stage;
    E.Category = "outside";
    E.StartNs = Cursor;
    E.DurNs = Ns;
    E.Tid = Tid;
    Events.push_back(std::move(E));
    Cursor += Ns;
  };
  auto verify = [&](const Module &M) {
    timed("verify", [&] {
      if (!verifyModule(M).empty())
        die("replay: module does not verify");
    });
  };
  auto linkAndFingerprint = [&](const Module &M) {
    LinkResult LR;
    timed("link", [&] { LR = linkModule(M); });
    if (!LR.ok())
      die("replay: link failed");
    volatile uint64_t Sink = 0;
    timed("fingerprint", [&] { Sink = LR.Img.fingerprint(); });
    (void)Sink;
  };

  for (const std::vector<size_t> &Group : solveGroups(Jobs)) {
    const JobSpec &First = Jobs[Group.front()];
    bool Measure = First.Kind == JobKind::Measure;
    PipelineOptions Opts = groupOptions(First);
    Module M;
    timed("codegen",
          [&] { M = buildBeebs(First.Benchmark, First.Level, First.Repeat); });
    verify(M);
    if (Measure)
      linkAndFingerprint(M);
    ExtractedModule EM = extractModule(M, Opts, /*NeedBaseline=*/false);
    if (!EM.ok())
      die("replay: " + EM.Error);
    PlacementSolver Solver(EM.MP, Opts.Knobs);
    std::set<Assignment> Seen;
    for (size_t I : Group) {
      ModelKnobs Knobs = Opts.Knobs;
      Knobs.RspareBytes = Jobs[I].RspareBytes;
      Knobs.Xlimit = Jobs[I].Xlimit;
      Assignment InRam = Solver.solve(Knobs, Opts.Solver);
      if (!Measure || !Seen.insert(InRam).second)
        continue;
      Module Opt;
      timed("instrument",
            [&] { Opt = applyPlacement(M, EM.MP, InRam); });
      verify(Opt);
      linkAndFingerprint(Opt);
    }
  }
  return Out;
}

//===--- Metrics output ------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  for (const Metric &M : Metrics)
    std::fprintf(stderr, "  %-28s %14.6g %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());
  std::string Json = formatString(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      Correct ? "true" : "false", static_cast<unsigned long long>(Attempted),
      static_cast<unsigned long long>(Failed));
  for (size_t I = 0; I != Metrics.size(); ++I)
    Json += formatString("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         I ? ", " : "", Metrics[I].Name.c_str(),
                         Metrics[I].Value, Metrics[I].Unit.c_str());
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

//===--- --trace 0: end-to-end metrics and checks ----------------------===//

constexpr unsigned SetupRounds = 3;
constexpr unsigned MinPasses = 3;
constexpr unsigned EnumeratorMaxBlocks = 20;

int runEndToEnd(const std::string &Name, uint64_t Seed, double Seconds,
                const Paths &P) {
  std::vector<double> SetupS;
  Inputs In;
  for (unsigned I = 0; I != SetupRounds; ++I) {
    Clock::time_point T0 = Clock::now();
    In = setUp(Name, Seed, P);
    SetupS.push_back(secondsSince(T0));
  }
  const Workload &W = In.W;

  std::vector<double> ConfigsPerS, CpuMsPerConfig;
  PassResult First;
  uint64_t FirstJsonHash = 0;
  unsigned Passes = 0, Divergent = 0;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  while (Passes < MinPasses || Clock::now() < Deadline) {
    PassResult R = runPass(W, P, W.Threads);
    double Configs = static_cast<double>(W.Jobs.size());
    ConfigsPerS.push_back(Configs / R.WallS);
    CpuMsPerConfig.push_back(1e3 * R.CpuS / Configs);
    uint64_t Hash = fnv1a64(R.Json);
    if (Passes == 0) {
      FirstJsonHash = Hash;
      First = std::move(R);
    } else if (Hash != FirstJsonHash) {
      ++Divergent;
    }
    ++Passes;
  }
  double PeakRss = peakRssMb();

  // Correctness, outside the timed region.
  bool Correct = Divergent == 0;
  if (Divergent != 0)
    std::fprintf(stderr, "check: report bytes changed across passes (%u "
                         "of %u passes differ)\n",
                 Divergent, Passes);
  if (W.UsesStore) {
    // The reference is the same grid run cold, with no store: every
    // reuse layer must leave the report bytes unchanged.
    CampaignResult Cold = runCampaign(W.Jobs, CampaignOptions{});
    In.Reference = splitLines(campaignToCsv(Cold));
    if (campaignToJson(Cold) != First.Json) {
      std::fprintf(stderr, "check: store-backed report differs from the "
                           "storeless report\n");
      Correct = false;
    }
  }
  if (!W.UsesStore) {
    // The README's --jobs invariant: one more pass at the other worker
    // count must produce the same bytes.
    unsigned Other = W.Threads == 1 ? parallelJobs() : 1;
    bool Same = runPass(W, P, Other).Json == First.Json;
    std::fprintf(stderr, "check: --jobs=%u report %s --jobs=%u\n", Other,
                 Same ? "byte-identical to" : "differs from", W.Threads);
    Correct = Correct && Same;
  }
  std::vector<bool> FailedRows = failedConfigs(First, In.Reference);
  uint64_t FailedPerPass = 0, DegradedPerPass = 0;
  for (size_t I = 0; I != FailedRows.size(); ++I) {
    if (FailedRows[I])
      ++FailedPerPass;
    else if (First.CR.Results[I].SolveOutcome != SolveStatus::Optimal)
      ++DegradedPerPass;
  }
  uint64_t Configs = W.Jobs.size();
  uint64_t Attempted = Configs * Passes;
  // A pass whose bytes diverged counts wholly failed.
  uint64_t Failed = FailedPerPass * (Passes - Divergent) +
                    Configs * Divergent;
  if (FailedPerPass != 0) {
    std::fprintf(stderr, "check: %llu of %llu configs failed or differ from "
                         "the reference row\n",
                 static_cast<unsigned long long>(FailedPerPass),
                 static_cast<unsigned long long>(Configs));
    Correct = false;
  }
  std::fprintf(stderr, "check: %llu of %llu configs carry a degraded "
                       "solve_status\n",
               static_cast<unsigned long long>(DegradedPerPass),
               static_cast<unsigned long long>(Configs));
  if (W.Jobs.front().Kind == JobKind::ModelOnly) {
    EnumCheck E = checkAgainstEnumerator(First.CR, EnumeratorMaxBlocks);
    std::fprintf(stderr, "check: enumerator agrees on %u of %u optimal "
                         "placements over %u model(s); %u model(s) skipped "
                         "(more than %u candidate blocks)\n",
                 E.Placements - E.Mismatches, E.Placements, E.ModelsChecked,
                 E.ModelsSkipped, EnumeratorMaxBlocks);
    if (E.Mismatches != 0)
      Correct = false;
  }

  uint64_t Optimal =
      Attempted - Failed - DegradedPerPass * (Passes - Divergent);
  std::fprintf(stderr,
               "%s: %u passes of %llu configs, seed %llu; configs/s per pass "
               "min %.1f median %.1f max %.1f\n",
               W.Name.c_str(), Passes, static_cast<unsigned long long>(Configs),
               static_cast<unsigned long long>(Seed),
               *std::min_element(ConfigsPerS.begin(), ConfigsPerS.end()),
               e2e::median(ConfigsPerS),
               *std::max_element(ConfigsPerS.begin(), ConfigsPerS.end()));
  printResult(
      Correct, Attempted, Failed,
      {{"configs_per_s", e2e::median(ConfigsPerS), "1/s"},
       {"cpu_ms_per_config", e2e::median(CpuMsPerConfig), "ms"},
       {"peak_rss_mb", PeakRss, "MB"},
       {"setup_s", e2e::median(SetupS), "s"},
       {"optimal_share",
        static_cast<double>(Optimal) / static_cast<double>(Attempted),
        "ratio"},
       {"energy_ratio", energyRatio(First.CR), "ratio"}});
  return 0;
}

//===--- --trace 1: the per-layer ledger -------------------------------===//

/// The registry counters a traced pass is windowed over.
const char *const WindowedCounters[] = {
    "sim.full_sims",
    "sim.recosts",
    "mip.solves",
    "mip.nodes",
    "mip.dual_pivots",
    "mip.primal_pivots",
    "mip.warm_node_solves",
    "mip.cold_node_solves",
    "jobqueue.idle_ns",
    "campaign.solve.degraded",
    "campaign.solve.cold",
    "campaign.solve.warm",
    "campaign.solve.incumbent_seeds",
    "campaign.cache.hits",
};

std::map<std::string, uint64_t> readCounters() {
  std::map<std::string, uint64_t> C;
  for (const char *Name : WindowedCounters)
    C[Name] = globalMetrics().counterValue(Name);
  return C;
}

/// Everything one traced pass yields.
struct TracedPass {
  PassResult R;
  TraceSnapshot Snap;
  e2e::Ledger L;
  std::map<std::string, uint64_t> Delta;
};

TracedPass runTracedPass(const Workload &W, const Paths &P) {
  TracedPass T;
  std::map<std::string, uint64_t> Before = readCounters();
  {
    TraceRecorder Recorder;
    Recorder.install();
    // The recorder numbers threads in registration order, so naming the
    // main thread before the pass starts gives it tid 0.
    Recorder.setThreadName("main");
    T.R = runPass(W, P, W.Threads);
    T.Snap = Recorder.snapshot();
    TraceRecorder::uninstall();
  }
  for (const auto &[Name, V] : readCounters())
    T.Delta[Name] = V - Before[Name];
  T.L = e2e::buildLedger(T.Snap, /*MainTid=*/0);
  return T;
}

/// Span self time that belongs to no finer layer: the container spans'
/// self time minus the outside-timed stages that run inside them.
const char *const ContainerSpans[] = {"pass",    "campaign", "job",
                                      "solve-group", "extract", "apply"};

int runLedger(const std::string &Name, uint64_t Seed, double Seconds,
              const Paths &P) {
  Inputs In = setUp(Name, Seed, P);
  const Workload &W = In.W;

  std::vector<double> UntracedWall;
  std::vector<TracedPass> Traced;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  // Tracing is a side channel: traced and untraced reports must match.
  bool SameBytes = true;
  while (Traced.size() < 2 || Clock::now() < Deadline) {
    PassResult Untraced = runPass(W, P, W.Threads);
    UntracedWall.push_back(Untraced.WallS);
    Traced.push_back(runTracedPass(W, P));
    SameBytes = SameBytes && Traced.back().R.Json == Untraced.Json;
    // Keep the last pass's events only; earlier passes keep their ledger.
    if (Traced.size() > 1)
      Traced[Traced.size() - 2].Snap = TraceSnapshot();
  }
  if (!SameBytes)
    std::fprintf(stderr, "check: traced report differs from untraced\n");

  TracedPass &Last = Traced.back();
  unsigned ReplayTid = 0;
  uint64_t ReplayStart = 0;
  for (const TraceEvent &E : Last.Snap.Events) {
    ReplayTid = std::max(ReplayTid, E.Tid + 1);
    ReplayStart = std::max(ReplayStart, E.StartNs + E.DurNs);
  }
  std::vector<TraceEvent> ReplayEvents;
  std::map<std::string, e2e::OutsideStage> Outside =
      replayOutsideStages(W.Jobs, ReplayEvents, ReplayTid, ReplayStart);
  double OutsideMs = 0.0;
  for (const auto &[Stage, S] : Outside)
    OutsideMs += S.Ms;

  // Per-pass values; times are reported as medians over traced passes.
  std::map<std::string, std::vector<double>> Series;
  for (const TracedPass &T : Traced) {
    const e2e::Ledger &L = T.L;
    double WallMs = 1e3 * T.R.WallS;
    double CampaignCpuMs = 1e3 * T.R.CampaignCpuS;
    double ContainerSelf = 0.0;
    for (const char *C : ContainerSpans)
      ContainerSelf += L.span(C).SelfMs;
    auto add = [&Series](const std::string &Key, double V) {
      Series[Key].push_back(V);
    };
    add("sim.fullsim_ms", L.span("fullsim").SelfMs);
    add("sim.recost_ms", L.span("recost").SelfMs);
    add("sim.predecode_ms", L.span("predecode").SelfMs);
    add("lp.solve_ms", L.span("solve").SelfMs);
    add("lp.solve_ms_p50", e2e::percentile(L.span("solve").DurMs, 50));
    add("lp.solve_ms_p99", e2e::percentile(L.span("solve").DurMs, 99));
    add("core.extract_ms", L.span("extract").SelfMs);
    add("core.apply_ms", L.span("apply").SelfMs);
    add("campaign.store_load_ms", L.span("cache.load").TotalMs);
    add("campaign.store_append_ms", L.span("cache.append").TotalMs);
    add("campaign.journal_ms", L.span("journal.append").TotalMs);
    add("campaign.report_ms", L.span("report").TotalMs);
    add("campaign.queue_idle_ms",
        static_cast<double>(T.Delta.at("jobqueue.idle_ns")) / 1e6);
    // Job-span time the campaign's CPU time does not account for: time
    // workers spent blocked (on the profile cache, typically).
    add("campaign.wait_ms", L.span("job").TotalMs - CampaignCpuMs);
    add("campaign.parallelism", T.R.CampaignCpuS / T.R.CampaignWallS);
    add("campaign.group_ms_p50",
        e2e::percentile(L.span("solve-group").DurMs, 50));
    add("campaign.group_ms_p90",
        e2e::percentile(L.span("solve-group").DurMs, 90));
    add("ledger.unattributed_ms", ContainerSelf - OutsideMs);
    add("ledger.wall_ms", WallMs);
  }
  auto med = [&Series](const std::string &Key) {
    return e2e::median(Series.at(Key));
  };
  auto count = [&Last](const char *Key) {
    return static_cast<double>(Last.Delta.at(Key));
  };
  double TracedWall = med("ledger.wall_ms");
  double UntracedWallMs = 1e3 * e2e::median(UntracedWall);
  unsigned Optimal = 0;
  for (const JobResult &J : Last.R.CR.Results)
    if (J.ok() && J.SolveOutcome == SolveStatus::Optimal)
      ++Optimal;
  auto outside = [&Outside](const char *Stage) { return Outside[Stage]; };

  std::vector<Metric> Metrics = {
      {"sim.full_sims", count("sim.full_sims"), "count"},
      {"sim.recosts", count("sim.recosts"), "count"},
      {"sim.fullsim_ms", med("sim.fullsim_ms"), "ms"},
      {"sim.recost_ms", med("sim.recost_ms"), "ms"},
      {"sim.predecode_ms", med("sim.predecode_ms"), "ms"},
      {"lp.solves", count("mip.solves"), "count"},
      {"lp.solve_ms", med("lp.solve_ms"), "ms"},
      {"lp.solve_ms_p50", med("lp.solve_ms_p50"), "ms"},
      {"lp.solve_ms_p99", med("lp.solve_ms_p99"), "ms"},
      {"lp.nodes", count("mip.nodes"), "count"},
      {"lp.dual_pivots", count("mip.dual_pivots"), "count"},
      {"lp.primal_pivots", count("mip.primal_pivots"), "count"},
      {"lp.warm_node_solves", count("mip.warm_node_solves"), "count"},
      {"lp.cold_node_solves", count("mip.cold_node_solves"), "count"},
      {"lp.degraded", count("campaign.solve.degraded"), "count"},
      {"core.extractions", static_cast<double>(Last.L.span("extract").Calls),
       "count"},
      {"core.extract_ms", med("core.extract_ms"), "ms"},
      {"core.applies", static_cast<double>(Last.L.span("apply").Calls),
       "count"},
      {"core.apply_ms", med("core.apply_ms"), "ms"},
      {"core.instrument_ms", outside("instrument").Ms, "ms"},
      {"layout.links", static_cast<double>(outside("link").Calls), "count"},
      {"layout.link_ms", outside("link").Ms, "ms"},
      {"layout.fingerprints", static_cast<double>(outside("fingerprint").Calls),
       "count"},
      {"layout.fingerprint_ms", outside("fingerprint").Ms, "ms"},
      {"mir.verifies", static_cast<double>(outside("verify").Calls), "count"},
      {"mir.verify_ms", outside("verify").Ms, "ms"},
      {"beebs.modules", static_cast<double>(outside("codegen").Calls), "count"},
      {"beebs.codegen_ms", outside("codegen").Ms, "ms"},
      {"campaign.store_load_ms", med("campaign.store_load_ms"), "ms"},
      {"campaign.store_append_ms", med("campaign.store_append_ms"), "ms"},
      {"campaign.journal_ms", med("campaign.journal_ms"), "ms"},
      {"campaign.store_bytes", static_cast<double>(Last.R.StoreBytes), "bytes"},
      {"campaign.cache_hits", count("campaign.cache.hits"), "count"},
      {"campaign.incumbent_seeds", count("campaign.solve.incumbent_seeds"),
       "count"},
      {"campaign.cold_solves", count("campaign.solve.cold"), "count"},
      {"campaign.warm_solves", count("campaign.solve.warm"), "count"},
      {"campaign.optimal", static_cast<double>(Optimal), "count"},
      {"campaign.report_ms", med("campaign.report_ms"), "ms"},
      {"campaign.queue_idle_ms", med("campaign.queue_idle_ms"), "ms"},
      {"campaign.wait_ms", med("campaign.wait_ms"), "ms"},
      {"campaign.parallelism", med("campaign.parallelism"), "ratio"},
      {"campaign.group_ms_p50", med("campaign.group_ms_p50"), "ms"},
      {"campaign.group_ms_p90", med("campaign.group_ms_p90"), "ms"},
      {"ledger.unattributed_ms", med("ledger.unattributed_ms"), "ms"},
      {"ledger.trace_overhead_pct",
       100.0 * (TracedWall / UntracedWallMs - 1.0), "%"},
  };

  // The ledger of the last traced pass, as a table and a Chrome trace
  // (program spans plus the replayed outside-timed calls).
  std::string Table = e2e::ledgerTable(
      Last.L, Outside, 1e3 * Last.R.WallS,
      Series.at("ledger.unattributed_ms").back());
  std::fprintf(stderr,
               "%s: ledger of the last of %zu traced passes, alternated "
               "with as many untraced ones\n%s",
               W.Name.c_str(), Traced.size(), Table.c_str());
  TraceSnapshot Snap = std::move(Last.Snap);
  Snap.Events.insert(Snap.Events.end(), ReplayEvents.begin(),
                     ReplayEvents.end());
  Snap.ThreadNames.emplace_back(ReplayTid, "outside-timed replay");
  std::string Error;
  fs::path TracePath = P.Out / (W.Name + ".trace.json");
  fs::path TablePath = P.Out / (W.Name + ".ledger.txt");
  if (!writeTextFile(TracePath.string(), traceToChromeJson(Snap, false),
                     &Error) ||
      !writeTextFile(TablePath.string(), Table, &Error))
    die(Error);
  std::fprintf(stderr, "ledger -> %s, %s\n", TablePath.c_str(),
               TracePath.c_str());

  printResult(SameBytes, W.Jobs.size() * Traced.size(), 0, Metrics);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, Reference, Out;
  uint64_t Seed = 1;
  double Seconds = 10;
  int Trace = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      die("missing value for " + Arg);
    std::string V = Argv[++I];
    if (Arg == "--workload")
      Workload = V;
    else if (Arg == "--seed")
      Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (Arg == "--seconds")
      Seconds = std::strtod(V.c_str(), nullptr);
    else if (Arg == "--trace")
      Trace = std::atoi(V.c_str());
    else if (Arg == "--reference")
      Reference = V;
    else if (Arg == "--out")
      Out = V;
    else
      die("unknown argument " + Arg);
  }
  if (Workload.empty() || Reference.empty() || Out.empty())
    die("usage: e2e_driver --workload NAME --seed N --seconds S --trace 0|1 "
        "--reference DIR --out DIR");
  Paths P{Reference, Out};
  fs::create_directories(P.Out);
  return Trace ? runLedger(Workload, Seed, Seconds, P)
               : runEndToEnd(Workload, Seed, Seconds, P);
}
