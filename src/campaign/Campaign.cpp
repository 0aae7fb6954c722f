//===- campaign/Campaign.cpp - batch experiment engine -------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "campaign/Campaign.h"

#include "beebs/Beebs.h"
#include "mir/Verifier.h"
#include "power/DeviceRegistry.h"
#include "support/FaultInjector.h"
#include "support/Format.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/OnceMap.h"
#include "support/Statistics.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

using namespace ramloc;

const char *ramloc::freqModeName(FreqMode M) {
  return M == FreqMode::Static ? "static" : "profiled";
}

const char *ramloc::jobKindName(JobKind K) {
  return K == JobKind::Measure ? "measure" : "model-only";
}

bool ramloc::freqModeFromName(const std::string &Name, FreqMode &Out) {
  for (FreqMode M : {FreqMode::Static, FreqMode::Profiled})
    if (Name == freqModeName(M)) {
      Out = M;
      return true;
    }
  return false;
}

bool ramloc::jobKindFromName(const std::string &Name, JobKind &Out) {
  for (JobKind K : {JobKind::Measure, JobKind::ModelOnly})
    if (Name == jobKindName(K)) {
      Out = K;
      return true;
    }
  return false;
}

std::string JobSpec::cacheKey() const {
  // jsonNumber gives Xlimit a canonical round-trippable spelling, so
  // 1.5 from the CLI and 1.5 from a GridSpec literal share a key.
  std::string Key = Benchmark;
  Key += '|';
  Key += optLevelName(Level);
  Key += "|r";
  appendDecimal(Key, Repeat);
  Key += '|';
  Key += Device;
  Key += "|R";
  appendDecimal(Key, RspareBytes);
  Key += "|X";
  appendJsonNumber(Key, Xlimit);
  Key += '|';
  Key += freqModeName(Freq);
  Key += '|';
  Key += jobKindName(Kind);
  return Key;
}

uint64_t JobSpec::configHash() const { return fnv1a64(cacheKey()); }

std::string JobSpec::solveGroupKey() const {
  return Benchmark + "|" + optLevelName(Level) + "|" +
         formatString("r%u", Repeat) + "|" + Device + "|" +
         freqModeName(Freq) + "|" + jobKindName(Kind);
}

std::vector<JobSpec> GridSpec::expand() const {
  std::vector<JobSpec> Jobs;
  Jobs.reserve(jobCount());
  for (const std::string &Bench : Benchmarks)
    for (OptLevel L : Levels)
      for (const std::string &Dev : Devices)
        for (unsigned Rspare : RsparePoints)
          for (double Xlimit : XlimitPoints)
            for (FreqMode FM : FreqModes) {
              JobSpec J;
              J.Benchmark = Bench;
              J.Level = L;
              J.Repeat = Repeat;
              J.Device = Dev;
              J.RspareBytes = Rspare;
              J.Xlimit = Xlimit;
              J.Freq = FM;
              J.Kind = Kind;
              Jobs.push_back(std::move(J));
            }
  return Jobs;
}

double JobResult::energyPct() const {
  return percentChange(BaseEnergyMilliJoules, OptEnergyMilliJoules);
}

double JobResult::timePct() const {
  return percentChange(BaseSeconds, OptSeconds);
}

double JobResult::powerPct() const {
  return percentChange(BaseAvgMilliWatts, OptAvgMilliWatts);
}

bool ResultCache::lookup(const std::string &Key, JobResult &Out) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(Key);
  if (It == Map.end())
    return false;
  Out = It->second;
  return true;
}

void ResultCache::insert(const std::string &Key, const JobResult &R) {
  std::lock_guard<std::mutex> Lock(Mu);
  Map.emplace(Key, R);
}

size_t ResultCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Map.size();
}

std::vector<std::pair<std::string, JobResult>>
ResultCache::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::pair<std::string, JobResult>> Entries(Map.begin(),
                                                         Map.end());
  std::sort(Entries.begin(), Entries.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  return Entries;
}

bool IncumbentStore::lookup(const std::string &GroupKey, Entry &Out) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(GroupKey);
  if (It == Map.end())
    return false;
  Out = It->second;
  return true;
}

void IncumbentStore::offer(const std::string &GroupKey,
                           const Assignment &InRam,
                           double EnergyMilliJoules) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(GroupKey);
  // Strictly-better-wins makes the stored entry independent of offer
  // order: ties keep the earlier assignment.
  if (It == Map.end()) {
    Map.emplace(GroupKey, Entry{InRam, EnergyMilliJoules});
    return;
  }
  if (EnergyMilliJoules < It->second.EnergyMilliJoules)
    It->second = Entry{InRam, EnergyMilliJoules};
}

size_t IncumbentStore::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Map.size();
}

std::vector<std::pair<std::string, IncumbentStore::Entry>>
IncumbentStore::snapshot() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<std::pair<std::string, Entry>> Entries(Map.begin(),
                                                     Map.end());
  std::sort(Entries.begin(), Entries.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  return Entries;
}

std::pair<size_t, size_t> ramloc::shardRange(size_t Total, unsigned Index,
                                             unsigned Count) {
  if (Count == 0 || Index == 0 || Index > Count)
    return {0, 0};
  return {Total * (Index - 1) / Count, Total * Index / Count};
}

CampaignSummary
ramloc::computeSummary(const std::vector<JobResult> &Results) {
  CampaignSummary S;
  S.Total = static_cast<unsigned>(Results.size());
  std::vector<double> Ratios, EnergyPcts, TimePcts, PowerPcts;
  for (const JobResult &R : Results) {
    if (R.CacheHit)
      ++S.CacheHits;
    if (!R.ok()) {
      ++S.Failed;
      continue;
    }
    ++S.Succeeded;
    if (R.SolveOutcome != SolveStatus::Optimal)
      ++S.Degraded;
    if (R.Spec.Kind == JobKind::Measure && R.BaseEnergyMilliJoules > 0) {
      Ratios.push_back(R.OptEnergyMilliJoules / R.BaseEnergyMilliJoules);
      EnergyPcts.push_back(R.energyPct());
      TimePcts.push_back(R.timePct());
      PowerPcts.push_back(R.powerPct());
    }
  }
  if (!Ratios.empty()) {
    S.GeomeanEnergyRatio = geomean(Ratios);
    S.MeanEnergyPct = mean(EnergyPcts);
    S.MeanTimePct = mean(TimePcts);
    S.MeanPowerPct = mean(PowerPcts);
  }
  S.UniqueRuns = S.Total - S.CacheHits;
  return S;
}

namespace {

/// Fills the model-side fields shared by both job kinds.
void fillModelFields(JobResult &R, const ModelParams &MP,
                     const Assignment &InRam) {
  ModelEstimate Base =
      evaluateAssignment(MP, Assignment(MP.numBlocks(), false));
  ModelEstimate Opt = evaluateAssignment(MP, InRam);
  R.PredictedBaseEnergyMilliJoules = Base.EnergyMilliJoules;
  R.PredictedOptEnergyMilliJoules = Opt.EnergyMilliJoules;
  R.PredictedBaseCycles = Base.Cycles;
  R.PredictedOptCycles = Opt.Cycles;
  R.RamBytes = Opt.RamBytes;
  for (unsigned B = 0, E = MP.numBlocks(); B != E; ++B)
    if (InRam[B])
      ++R.MovedBlocks;
}

/// Fills the measured fields from a finished pipeline run.
void fillMeasureFields(JobResult &R, const PipelineResult &PR) {
  R.BaseEnergyMilliJoules = PR.MeasuredBase.Energy.MilliJoules;
  R.OptEnergyMilliJoules = PR.MeasuredOpt.Energy.MilliJoules;
  R.BaseSeconds = PR.MeasuredBase.Energy.Seconds;
  R.OptSeconds = PR.MeasuredOpt.Energy.Seconds;
  R.BaseAvgMilliWatts = PR.MeasuredBase.Energy.AvgMilliWatts;
  R.OptAvgMilliWatts = PR.MeasuredOpt.Energy.AvgMilliWatts;
  R.BaseCycles = PR.MeasuredBase.Stats.Cycles;
  R.OptCycles = PR.MeasuredOpt.Stats.Cycles;
}

/// Campaign-scoped memo of solve chains by PlacementSolver::chainKey over
/// the knob points a group visits: each distinct chain is solved once,
/// and every other group posing the same ILP at the same points copies
/// its solutions.
using SolveChainMemo =
    OnceMap<uint64_t, std::shared_ptr<const std::vector<MipSolution>>>;

/// Everything about one (benchmark, level, repeat) program that no
/// device changes: the module, its baseline image and each placement's
/// build. The paper's device enters only through power and timing
/// coefficients, so every solve group over the program shares one.
struct Program {
  Module M;
  /// "verifier: <first diagnostic>" when M does not verify.
  std::string Error;
  /// Placement builds by assignment; derived ones keep only the pricing
  /// view of their image (see placementOf).
  OnceMap<Assignment, std::shared_ptr<const PlacementBuild>> Placements;

  /// The baseline image, and its execution key under profile reuse,
  /// linked by the first caller; a model-only grid with static
  /// frequencies links none.
  const LinkedImage &baseline(const PipelineOptions &Opts) {
    std::call_once(Linked, [&] {
      Base = linkImage(M, Opts.Link, /*Keyed=*/Opts.Profiles != nullptr);
    });
    return Base;
  }

private:
  std::once_flag Linked;
  LinkedImage Base;
};

std::string programKey(const JobSpec &J) {
  return J.Benchmark + "|" + optLevelName(J.Level) +
         formatString("|r%u", J.Repeat);
}

std::shared_ptr<Program> buildProgram(const JobSpec &J, Counter &Built) {
  auto P = std::make_shared<Program>();
  P->M = buildBeebs(J.Benchmark, J.Level, J.Repeat);
  std::vector<std::string> Diags = verifyModule(P->M);
  if (!Diags.empty())
    P->Error = "verifier: " + Diags.front();
  Built.add();
  return P;
}

/// Campaign-scoped programs under profile reuse: the first solve group
/// over a program builds it and publishes at once, before it measures,
/// solves or waits, so no wait cycle forms with ProfileCache or the
/// solve-chain memo. Each program's groups are counted before any runs,
/// and the last to finish releases it.
class ProgramTable {
public:
  /// Counts one solve group over \p Key; called before any group runs.
  void expect(const std::string &Key) { ++Pending[Key]; }

  std::shared_ptr<Program> get(const std::string &Key, const JobSpec &J,
                               Counter &Built) {
    std::shared_ptr<Program> P;
    Memo::Claim Owned = Map.claim(Key, P);
    if (!P) {
      P = buildProgram(J, Built);
      Owned.publish(P);
    }
    return P;
  }

  /// One group over \p Key finished; the last one drops the program.
  void release(const std::string &Key) {
    if (Pending.at(Key).fetch_sub(1) == 1)
      Map.erase(Key);
  }

  /// A solve group's hold on its program, released on every path out.
  struct Lease {
    Lease(ProgramTable *Table, std::string Key)
        : Table(Table), Key(std::move(Key)) {}
    Lease(const Lease &) = delete;
    Lease &operator=(const Lease &) = delete;
    ~Lease() {
      if (Table)
        Table->release(Key);
    }

    ProgramTable *const Table;
    const std::string Key;
  };

private:
  using Memo = OnceMap<std::string, std::shared_ptr<Program>>;
  Memo Map;
  std::unordered_map<std::string, std::atomic<unsigned>> Pending;
};

/// What recostProfile reads of \p Img: a derived placement's entry keeps
/// only this, not the ~216 KB of memory images and instruction maps.
std::shared_ptr<const Image> pricingView(const Image &Img) {
  auto View = std::make_shared<Image>();
  View->Map = Img.Map;
  View->Instrs = Img.Instrs;
  View->BlockAddr = Img.BlockAddr;
  View->StartupCopyCycles = Img.StartupCopyCycles;
  return View;
}

/// \p P's build of \p InRam: the first caller applies, verifies, links
/// and derives under an "apply" span and publishes; every other caller
/// reads it.
std::shared_ptr<const PlacementBuild>
placementOf(Program &P, const Assignment &InRam, const ExtractedModule &EM,
            const LinkOptions &Link, MetricsRegistry &Reg) {
  std::shared_ptr<const PlacementBuild> B;
  auto Owned = P.Placements.claim(InRam, B);
  if (!B) {
    TraceSpan Span("apply", "pipeline");
    auto Built = std::make_shared<PlacementBuild>(
        buildPlacement(P.M, EM.MP, InRam, Link, &EM.Base));
    Built->Optimized = Module();
    if (Built->Derived)
      Built->Linked.Img = pricingView(*Built->Linked.Img);
    Reg.counter("campaign.build.placements").add();
    B = std::move(Built);
    Owned.publish(B);
  }
  return B;
}

/// Runs one solve group: jobs agreeing on everything but the
/// Xlimit/Rspare knobs, visited loosest-first. The group takes its
/// program from \p Programs (built once per campaign; without the table,
/// which is how profile reuse off runs, it builds its own), measures the
/// baseline and extracts the parameters under its device once; the
/// surviving knob points are then solved as one chain of RHS patches,
/// each starting from the previous point's basis, incumbent and
/// pseudo-costs (PlacementSolver), and finally applied and labelled. Each
/// distinct placement is built once per program and priced once per
/// group under the group's device. Every per-job outcome — including
/// every error string — is produced by the same staged functions the
/// single-job path uses, so grouped and ungrouped runs cannot drift
/// apart. With \p Chains, a group whose chain another group already
/// solves copies that group's solutions instead of repeating them.
/// \p OnDone is invoked after each job's slot in \p Results is final.
void runSolveGroup(const std::vector<JobSpec> &Jobs,
                   std::vector<size_t> Indices,
                   const PipelineOptions &Base,
                   std::vector<JobResult> &Results,
                   const std::function<void(size_t)> &OnDone,
                   MetricsRegistry &Reg,
                   IncumbentStore *Incumbents = nullptr,
                   bool SeedIncumbents = true,
                   SolveChainMemo *Chains = nullptr,
                   ProgramTable *Programs = nullptr) {
  // Loosest first (Rspare descending, then Xlimit descending; stable, so
  // equal points keep their order): a point whose looser neighbour's
  // proven optimum still fits is then settled without search. Reports do
  // not depend on the order — every solve proves optimality — and groups
  // over the same points visit them in the same order, so they share a
  // chain key.
  std::stable_sort(Indices.begin(), Indices.end(), [&](size_t A, size_t B) {
    if (Jobs[A].RspareBytes != Jobs[B].RspareBytes)
      return Jobs[A].RspareBytes > Jobs[B].RspareBytes;
    return Jobs[A].Xlimit > Jobs[B].Xlimit;
  });
  const JobSpec &First = Jobs[Indices.front()];
  ProgramTable::Lease Lease{Programs, programKey(First)};
  TraceSpan GroupSpan("solve-group", "campaign");
  if (GroupSpan.active()) {
    GroupSpan.arg("group", First.solveGroupKey());
    GroupSpan.arg("jobs", std::to_string(Indices.size()));
  }

  auto failAll = [&](const std::string &Error) {
    for (size_t I : Indices) {
      Results[I] = JobResult();
      Results[I].Spec = Jobs[I];
      Results[I].Error = Error;
      OnDone(I);
    }
  };

  if (!isKnownBeebs(First.Benchmark)) {
    failAll("unknown benchmark '" + First.Benchmark + "'");
    return;
  }
  const DeviceInfo *Dev = findDevice(First.Device);
  if (!Dev) {
    failAll("unknown device '" + First.Device + "'");
    return;
  }

  // Group options snapshot: the shared template plus the group's axes.
  PipelineOptions Opts = Base;
  Opts.Knobs.RspareBytes = First.RspareBytes;
  Opts.Knobs.Xlimit = First.Xlimit;
  Opts.Power = Dev->Model;
  // The device also owns the cycle model (flash wait states, in
  // particular), so both the simulator and the parameter extraction see
  // the part's actual fetch timing.
  Opts.Sim.Timing = Dev->Timing;
  Opts.Extract.Timing = Dev->Timing;
  Opts.UseProfiledFrequencies = First.Freq == FreqMode::Profiled;

  // Measure jobs report the baseline; ModelOnly only measures it when
  // the frequency profile demands it.
  bool Measured =
      First.Kind == JobKind::Measure || Opts.UseProfiledFrequencies;
  Counter &ProgramsBuilt = Reg.counter("campaign.build.programs");
  std::shared_ptr<Program> P;
  ExtractedModule EM;
  {
    TraceSpan Span("extract", "pipeline");
    P = Programs ? Programs->get(Lease.Key, First, ProgramsBuilt)
                 : buildProgram(First, ProgramsBuilt);
    if (!P->Error.empty())
      EM.Error = P->Error;
    else
      EM = extractModule(P->M, Measured ? P->baseline(Opts) : LinkedImage(),
                         Opts, Measured);
  }
  if (!EM.ok()) {
    failAll(EM.Error);
    return;
  }

  // Fault site: this worker loses this one job mid-flight (a simulated
  // per-job crash). The job fails with a distinctive error and the rest
  // of the group carries on without its knob point.
  std::vector<size_t> Live;
  std::vector<ModelKnobs> Points;
  for (size_t I : Indices) {
    if (FaultInjector::shouldFail("job.abort")) {
      Results[I] = JobResult();
      Results[I].Spec = Jobs[I];
      Results[I].Error = "injected fault: job aborted (job.abort)";
      OnDone(I);
      continue;
    }
    Live.push_back(I);
    ModelKnobs &Knobs = Points.emplace_back(Opts.Knobs);
    Knobs.RspareBytes = Jobs[I].RspareBytes;
    Knobs.Xlimit = Jobs[I].Xlimit;
  }

  PlacementSolver Solver(EM.MP, Opts.Knobs);
  // Open the group's first solve with the persisted best-known placement
  // (cross-process incumbent). The solver re-validates the seed at zero
  // tolerance under the patched knobs, so a stale entry merely misses;
  // with warm nodes disabled the cross-solve state is off by design and
  // the seed would never be read.
  const std::string GroupKey = First.solveGroupKey();
  bool Seeded = false;
  if (Incumbents && SeedIncumbents && Opts.Solver.WarmNodes) {
    IncumbentStore::Entry Known;
    if (Incumbents->lookup(GroupKey, Known))
      Seeded = Solver.seedIncumbent(EM.MP, Known.InRam);
  }

  // Groups posing a bit-identical ILP under the same seed and solver
  // config at the same knob points share one solve chain: the first group
  // to reach the key solves it, every other group waits for it and copies
  // its solutions. A group waits after extraction has published its
  // baseline profile and before any placement build, the owner publishes
  // before its own builds, and a build waits on nothing, so no wait cycle
  // with ProfileCache or the program table can form. The
  // Claim publishes on every path out of an owner; a follower that gets
  // no chain solves its own.
  std::shared_ptr<const std::vector<MipSolution>> Chain;
  SolveChainMemo::Claim Owned =
      Chains ? Chains->claim(Solver.chainKey(Opts.Solver, Points), Chain)
             : SolveChainMemo::Claim();
  Reg.counter("campaign.solve.replayed").add(Chain ? Chain->size() : 0);
  if (!Chain) {
    auto Solved = std::make_shared<std::vector<MipSolution>>();
    Solved->reserve(Points.size());
    for (const ModelKnobs &Knobs : Points) {
      MipSolution &Sol = Solved->emplace_back();
      Solver.solve(Knobs, Opts.Solver, &Sol);
      Reg.histogram("campaign.solve.nodes")
          .record(static_cast<double>(Sol.NodesExplored));
      Reg.histogram("campaign.solve.pivots")
          .record(static_cast<double>(Sol.Stats.PrimalPivots +
                                      Sol.Stats.DualPivots));
      if (Sol.Stats.Dominated)
        Reg.counter("campaign.solve.dominated").add();
    }
    Chain = Solved;
    Owned.publish(Chain);
  }

  // Knob points whose optimal placements coincide share one build of it
  // and, under this group's device, one price.
  std::map<std::shared_ptr<const PlacementBuild>, JobResult> Priced;
  for (size_t K = 0; K != Live.size(); ++K) {
    const JobSpec &Spec = Jobs[Live[K]];
    const MipSolution &Sol = (*Chain)[K];
    Assignment InRam = Solver.model().decode(Sol);
    // Offer the *opening* point's optimum, not every point's: a re-run
    // of the same grid seeds at the same opening point, where this
    // assignment re-validates exactly and opens the search with the true
    // optimum. The opening point is the group's loosest, so its optimum
    // is the best-known placement of every point the group visits.
    if (Incumbents && K == 0)
      Incumbents->offer(GroupKey, InRam,
                        evaluateAssignment(EM.MP, InRam).EnergyMilliJoules);

    JobResult R;
    if (Spec.Kind == JobKind::Measure) {
      auto B = placementOf(*P, InRam, EM, Opts.Link, Reg);
      auto [It, New] = Priced.try_emplace(B);
      if (New) {
        // A derived build keeps only its pricing view; a run that needs
        // the image itself rebuilds it, to the same bytes.
        std::function<std::shared_ptr<const Image>()> FullImage;
        if (B->Derived)
          FullImage = [&] {
            return buildPlacement(P->M, EM.MP, InRam, Opts.Link, nullptr)
                .Linked.Img;
          };
        PipelineResult PR =
            measurePlacement(EM, *B, InRam, Sol, Opts, FullImage);
        if (!PR.ok()) {
          It->second.Error = PR.Error;
        } else {
          fillMeasureFields(It->second, PR);
          fillModelFields(It->second, EM.MP, InRam);
        }
      }
      R = It->second;
    } else {
      fillModelFields(R, EM.MP, InRam);
    }
    R.Spec = Spec;
    // The job-level trust label. An Aborted solve still yields a usable
    // job: PlacementSolver::decode falls back to the all-flash placement
    // (trivially feasible — it moves nothing), so the numbers below are
    // real and the honest label is FeasibleLimit, "a feasible answer a
    // limit kept us from improving". Only a *proven* infeasibility keeps
    // its stronger label.
    R.SolveOutcome = Sol.Outcome == SolveStatus::Optimal
                         ? SolveStatus::Optimal
                     : Sol.Outcome == SolveStatus::InfeasibleProven
                         ? SolveStatus::InfeasibleProven
                         : SolveStatus::FeasibleLimit;
    // The registry is the campaign's book of record for solver effort.
    // A copied solution keeps its donor's labels. A group's later solves
    // are seeded by the knob chain itself; only the first one can have
    // been opened by the persistent store.
    Reg.counter("campaign.solve.extractions").add(K == 0 ? 1 : 0);
    Reg.counter("campaign.solve.cold").add(Sol.Stats.WarmStarted ? 0 : 1);
    Reg.counter("campaign.solve.warm").add(Sol.Stats.WarmStarted ? 1 : 0);
    Reg.counter("campaign.solve.incumbent_seeds")
        .add(K == 0 && Seeded && Sol.Stats.SeededIncumbent ? 1 : 0);
    if (R.ok() && R.SolveOutcome != SolveStatus::Optimal)
      Reg.counter("campaign.solve.degraded").add();
    Results[Live[K]] = std::move(R);
    OnDone(Live[K]);
  }
}

} // namespace

JobResult ramloc::runJob(const JobSpec &Spec, const PipelineOptions &Base) {
  std::vector<JobSpec> Jobs{Spec};
  std::vector<JobResult> Results(1);
  MetricsRegistry Scratch;
  runSolveGroup(Jobs, {0}, Base, Results, [](size_t) {}, Scratch);
  return Results[0];
}

CampaignResult ramloc::runCampaign(const std::vector<JobSpec> &Jobs,
                                   const CampaignOptions &Opts) {
  // Every effort count is recorded into Reg as it happens; without a
  // caller-supplied registry a private one serves.
  MetricsRegistry LocalMetrics;
  MetricsRegistry &Reg = Opts.Metrics ? *Opts.Metrics : LocalMetrics;
  const auto Start = std::chrono::steady_clock::now();
  // Full simulations and recosts are counted process-wide where they
  // happen (sim.*); the campaign's share is the growth over its run.
  const MetricsRegistry &Global = globalMetrics();
  const uint64_t FullSimsBefore = Global.counterValue("sim.full_sims");
  const uint64_t RecostsBefore = Global.counterValue("sim.recosts");
  TraceSpan CampaignSpan("campaign", "campaign");
  if (CampaignSpan.active())
    CampaignSpan.arg("jobs", std::to_string(Jobs.size()));
  CampaignResult CR;
  CR.Results.resize(Jobs.size());

  // Decide dedup up front so the outcome is independent of scheduling:
  // the first occurrence of each key runs, later ones copy its result.
  std::vector<size_t> RunIndices;          // jobs that actually execute
  std::vector<ptrdiff_t> CopyFrom(Jobs.size(), -1);
  {
    std::unordered_map<std::string, size_t> FirstByKey;
    for (size_t I = 0; I != Jobs.size(); ++I) {
      if (!Opts.UseCache) {
        RunIndices.push_back(I);
        continue;
      }
      std::string Key = Jobs[I].cacheKey();
      JobResult Cached;
      if (Opts.Cache && Opts.Cache->lookup(Key, Cached)) {
        CR.Results[I] = Cached;
        CR.Results[I].Spec = Jobs[I];
        CR.Results[I].CacheHit = true;
        continue;
      }
      auto [It, Inserted] = FirstByKey.emplace(Key, I);
      if (Inserted)
        RunIndices.push_back(I);
      else
        CopyFrom[I] = static_cast<ptrdiff_t>(It->second);
    }
  }
  Reg.counter("campaign.jobs.total").add(Jobs.size());
  Reg.counter("campaign.jobs.unique").add(RunIndices.size());
  const unsigned UniqueRuns = static_cast<unsigned>(RunIndices.size());

  // Group jobs by execution key: every job shares one ProfileCache, so
  // grid points that execute the same image (the device axis, typically)
  // fan out over a single simulation. The cache's compute-once semantics
  // keep the grouping exact under any worker interleaving. The campaign
  // decides the cache alone; Base.Profiles is not consulted.
  ProfileCache CampaignProfiles;
  ProfileCache *Profiles =
      Opts.Profiles ? Opts.Profiles
                    : (Opts.ReuseProfiles ? &CampaignProfiles : nullptr);
  PipelineOptions JobBase = Opts.Base;
  JobBase.Profiles = Profiles;

  // Partition the jobs that will run into solve groups: jobs differing
  // only in the Xlimit/Rspare knobs share one extraction and one ILP, so
  // each group runs as a single task that warm-starts successive knob
  // points (reports are byte-identical to per-job scheduling; the knob
  // points of one group just stop paying for repeated extractions and
  // from-scratch solves). With reuse disabled (the cold reference solver)
  // every job is its own group.
  bool ReuseSolves = Opts.Base.Solver.WarmNodes;
  std::vector<std::vector<size_t>> Groups;
  if (ReuseSolves) {
    std::unordered_map<std::string, size_t> GroupOf;
    for (size_t I : RunIndices) {
      auto [It, New] = GroupOf.emplace(Jobs[I].solveGroupKey(), Groups.size());
      if (New)
        Groups.emplace_back();
      Groups[It->second].push_back(I);
    }
  } else {
    for (size_t I : RunIndices)
      Groups.push_back({I});
  }

  // Solve groups that pose a bit-identical ILP at the same knob points
  // share one solve chain (runSolveGroup). The memo lives and dies with
  // this campaign, and it is off with solve reuse, so `--reuse` without
  // `solve` stays the all-solved reference.
  SolveChainMemo Chains;
  SolveChainMemo *ChainMemo = ReuseSolves ? &Chains : nullptr;

  // Under profile reuse every solve group over a program shares one
  // build of it and of each distinct placement; a program is released
  // when its last group finishes, so at --jobs=1 about one is resident.
  // Without the profile layer each group builds its own.
  ProgramTable Programs;
  ProgramTable *ProgramMemo = Profiles ? &Programs : nullptr;
  if (ProgramMemo)
    for (const std::vector<size_t> &G : Groups)
      Programs.expect(programKey(Jobs[G.front()]));

  // Every group is known before the first one runs, so the workers share
  // one cursor over Groups and each takes the next group until none is
  // left; a worker beyond the group count would have nothing to take.
  // Results land in disjoint slots; only progress is serialized.
  unsigned Workers = std::max(
      1u, Opts.Jobs != 0 ? Opts.Jobs : std::thread::hardware_concurrency());
  Workers = static_cast<unsigned>(std::min<size_t>(Workers, Groups.size()));
  std::atomic<size_t> NextGroup{0};
  std::mutex ProgressMu;
  unsigned Done = 0;
  std::vector<std::chrono::steady_clock::time_point> FinishedAt(Workers);
  auto Work = [&](unsigned Self) {
    if (TraceRecorder *R = TraceRecorder::current())
      R->setThreadName(formatString("worker-%u", Self));
    for (size_t G; (G = NextGroup.fetch_add(1)) < Groups.size();) {
      TraceSpan Span("job", "queue");
      runSolveGroup(
          Jobs, Groups[G], JobBase, CR.Results,
          [&](size_t I) {
            if (Opts.Progress || Opts.Journal) {
              std::lock_guard<std::mutex> Lock(ProgressMu);
              ++Done;
              // Journal before reporting progress: once the user has
              // seen a job finish, a kill must not lose it.
              if (Opts.Journal) {
                Opts.Journal(CR.Results[I]);
                Reg.counter("campaign.journal.appends").add();
              }
              if (Opts.Progress)
                Opts.Progress(CR.Results[I], Done, UniqueRuns);
            }
          },
          Reg, Opts.Incumbents, Opts.SeedIncumbents, ChainMemo,
          ProgramMemo);
    }
    FinishedAt[Self] = std::chrono::steady_clock::now();
  };
  {
    std::vector<std::jthread> Threads; // joined on scope exit
    for (unsigned W = 0; W != Workers; ++W)
      Threads.emplace_back(Work, W);
  }
  // Idle time: each worker's wait from its last group to the last
  // worker's finish (no worker, no idle time, when every job was cached).
  auto LastFinish = std::max_element(FinishedAt.begin(), FinishedAt.end());
  Counter &IdleNs = Reg.counter("jobqueue.idle_ns");
  for (auto At : FinishedAt)
    IdleNs.add(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(*LastFinish - At)
            .count()));

  Reg.counter("campaign.sim.full_sims")
      .add(Global.counterValue("sim.full_sims") - FullSimsBefore);
  Reg.counter("campaign.sim.recosts")
      .add(Global.counterValue("sim.recosts") - RecostsBefore);

  // Fill duplicates and feed the cross-campaign cache.
  for (size_t I = 0; I != Jobs.size(); ++I)
    if (CopyFrom[I] >= 0) {
      CR.Results[I] = CR.Results[CopyFrom[I]];
      CR.Results[I].Spec = Jobs[I];
      CR.Results[I].CacheHit = true;
    }
  if (Opts.Cache)
    for (size_t I : RunIndices)
      Opts.Cache->insert(Jobs[I].cacheKey(), CR.Results[I]);

  CR.Summary = computeSummary(CR.Results);
  Reg.counter("campaign.cache.hits").add(CR.Summary.CacheHits);
  Reg.histogram("campaign.wall_seconds")
      .record(std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - Start)
                  .count());
  return CR;
}

CampaignResult ramloc::runCampaign(const GridSpec &Grid,
                                   const CampaignOptions &Opts) {
  return runCampaign(Grid.expand(), Opts);
}
