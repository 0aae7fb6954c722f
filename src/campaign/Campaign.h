//===- campaign/Campaign.h - batch experiment engine ------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The experiment-campaign engine: the paper's evaluation (Figs. 5-9) is
/// a family of sweeps of one pipeline over benchmarks x devices x knob
/// settings, and this subsystem makes such sweeps declarative. A GridSpec
/// names axis values; expand() crosses them into an ordered job list; the
/// engine deduplicates identical configurations through a config-keyed
/// result cache, runs the unique jobs' solve groups on --jobs worker
/// threads that take groups in order from one shared cursor, and
/// aggregates summary statistics. Results are reported in expansion
/// order and carry no wall-clock data, so a campaign's report is
/// byte-identical whatever --jobs is.
///
/// Jobs are additionally grouped by *execution key* (image fingerprint +
/// arguments) through a shared ProfileCache: the first job to need a
/// given execution simulates it once and records a device-independent
/// ExecutionProfile; every other job over the same execution — the whole
/// device axis of a grid, typically — derives its bit-identical RunStats
/// by recosting that profile in O(#instructions). The cache's
/// compute-once semantics make the grouping scheduler-independent, so a
/// 1-benchmark x N-device grid performs exactly one full simulation per
/// distinct image however many workers run. An optimized image is not
/// even that: its profile is derived from its baseline's
/// (deriveOptimizedProfile) and recost, so a Measure grid simulates only
/// its distinct baselines.
///
/// The program itself is device-independent too: the device enters only
/// through power and timing coefficients. With profile reuse on, each
/// (benchmark, level, repeat) program is built once per campaign —
/// codegen, verify, baseline link and execution key — and so is each
/// distinct placement of it (apply, verify, link, derived profile), on
/// campaign-scoped compute-once maps; a solve group prices them under its
/// device, once per distinct placement it chose. The first group to need
/// a program or placement builds and publishes it before it measures,
/// solves or waits, and a program is released when the last of its
/// groups (counted before any runs) finishes. A derived placement keeps
/// only the pricing view of its image, and a device whose price is over
/// the cycle budget rebuilds the image it simulates.
///
/// The optimizer gets the same treatment on the knob axis: jobs that
/// share everything but Xlimit/Rspare form a *solve group*. A group runs
/// as one worker task that extracts parameters and builds the ILP once,
/// then visits its knob points loosest-first (Rspare descending, then
/// Xlimit descending), each solved as an RHS patch warm-started from the
/// previous point's basis and pseudo-costs (core/IlpModel's
/// PlacementSolver), so a 3x3 knob grid pays 1 extraction + 1 cold
/// solve + 8 re-optimizations (the campaign.solve.extractions/cold/warm
/// counters show it). Loosest-first lets a point whose looser
/// neighbour's optimum still fits take that optimum without search
/// (campaign.solve.dominated). Solve groups
/// whose ILPs are bit-identical share one solve chain: Eqs. 1-9 see a
/// placement only in cycles and per-memory power, so most BEEBS
/// benchmarks pose the same ILP at O1 and O2, and a device that differs
/// only in clock rate poses its sibling's (the canonical grid's 180
/// groups hold 96 distinct ILPs). A chain is a pure function of its key
/// (PlacementSolver::chainKey: model, solver config and the knob points
/// visited, a cached or aborted job's point left out), so the first
/// group to reach a key solves the whole chain and every other group with
/// that key copies its solutions: warm chains and labels are exactly what
/// solving every group would give (campaign.solve.replayed counts the
/// copied jobs). Warm and cold
/// solves are both exact, so reports are byte-identical with solve reuse
/// on or off (Base.Solver.WarmNodes, `--reuse` without `solve`)
/// whenever every solve proves optimality. A dual simplex row stuck on
/// round-off pivots is certified infeasible or repaired rather than
/// given up on, so a solve with no limit set keeps its proof.
///
/// A solve starts from its chain's basis and branching history alone:
/// warm chains, dominated points and chain replay settle every point, so
/// no known placement is planted in the search, within a chain or across
/// processes.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_CAMPAIGN_CAMPAIGN_H
#define RAMLOC_CAMPAIGN_CAMPAIGN_H

#include "beebs/Codegen.h"
#include "core/Pipeline.h"
#include "lp/SolverConfig.h"
#include "sim/ProfileCache.h"

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ramloc {

class MetricsRegistry;

/// How block frequencies Fb are obtained (the Figure 5 estimated-vs-
/// "w/Frequency" axis).
enum class FreqMode : uint8_t { Static, Profiled };

/// What a job runs. Measure is the full pipeline including simulation;
/// ModelOnly stops at the ILP and model evaluation (the Figure 6 sweeps,
/// ~100x cheaper per point — except with FreqMode::Profiled, which still
/// simulates the baseline once per job to collect the profile).
enum class JobKind : uint8_t { Measure, ModelOnly };

const char *freqModeName(FreqMode M);
const char *jobKindName(JobKind K);
bool freqModeFromName(const std::string &Name, FreqMode &Out);
bool jobKindFromName(const std::string &Name, JobKind &Out);

/// One fully-specified experiment configuration.
struct JobSpec {
  std::string Benchmark;             ///< BEEBS registry name
  OptLevel Level = OptLevel::O2;
  unsigned Repeat = 0;               ///< kernel iterations; 0 = suite default
  std::string Device = "stm32f100";  ///< DeviceRegistry name
  unsigned RspareBytes = 512;
  double Xlimit = 1.5;
  FreqMode Freq = FreqMode::Static;
  JobKind Kind = JobKind::Measure;

  /// Canonical textual form: the dedup/memoization key and the job's
  /// stable identifier in logs and reports.
  std::string cacheKey() const;
  /// FNV-1a hash of cacheKey(), reported as the job's config_hash.
  uint64_t configHash() const;
  /// The knob-free part of the key: jobs sharing it differ only in
  /// Rspare/Xlimit and can share one extraction + ILP (a solve group).
  std::string solveGroupKey() const;
};

/// A declarative grid: the cross product of the axis value lists.
struct GridSpec {
  std::vector<std::string> Benchmarks;
  std::vector<OptLevel> Levels = {OptLevel::O2};
  std::vector<std::string> Devices = {"stm32f100"};
  std::vector<unsigned> RsparePoints = {512};
  std::vector<double> XlimitPoints = {1.5};
  std::vector<FreqMode> FreqModes = {FreqMode::Static};
  JobKind Kind = JobKind::Measure;
  unsigned Repeat = 0;

  /// Crosses the axes into jobs. Order is deterministic and documented:
  /// benchmark-major, then level, device, Rspare, Xlimit, frequency mode.
  std::vector<JobSpec> expand() const;

  size_t jobCount() const {
    return Benchmarks.size() * Levels.size() * Devices.size() *
           RsparePoints.size() * XlimitPoints.size() * FreqModes.size();
  }
};

/// One job's outcome. Only deterministic quantities live here; wall time
/// is tracked campaign-wide and never serialized per job.
struct JobResult {
  JobSpec Spec;
  std::string Error; ///< empty on success
  /// What the job's solves proved (lp/SolverConfig.h). Optimal unless a
  /// cooperative solver limit (--time-limit-ms / --node-limit /
  /// --pivot-limit) truncated a proof: then FeasibleLimit — the
  /// placement is feasible and its numbers are real, but a better one
  /// may exist. Serialized (as "solve_status") only when degraded, so
  /// unlimited runs' reports carry today's exact bytes; a degraded
  /// result is labelled in the report and never persisted to the
  /// results cache.
  SolveStatus SolveOutcome = SolveStatus::Optimal;
  /// Provenance. Never serialized: reports must not depend on how a
  /// result was obtained. (Solver effort is counted in the campaign.solve.*
  /// metrics, not per job.)
  bool CacheHit = false;

  /// Measured (JobKind::Measure only).
  double BaseEnergyMilliJoules = 0.0, OptEnergyMilliJoules = 0.0;
  double BaseSeconds = 0.0, OptSeconds = 0.0;
  double BaseAvgMilliWatts = 0.0, OptAvgMilliWatts = 0.0;
  uint64_t BaseCycles = 0, OptCycles = 0;

  /// Model-side (both kinds).
  double PredictedBaseEnergyMilliJoules = 0.0;
  double PredictedOptEnergyMilliJoules = 0.0;
  double PredictedBaseCycles = 0.0;
  double PredictedOptCycles = 0.0;
  unsigned RamBytes = 0;     ///< RAM consumed by relocated code
  unsigned MovedBlocks = 0;

  bool ok() const { return Error.empty(); }

  /// Measured percentage changes, new vs base (negative = improvement).
  double energyPct() const;
  double timePct() const;
  double powerPct() const;
};

/// Thread-safe memoization of JobResults by cacheKey(). A campaign uses
/// an internal cache for intra-run dedup; passing one in CampaignOptions
/// extends memoization across campaigns in the same process.
class ResultCache {
public:
  bool lookup(const std::string &Key, JobResult &Out) const;
  void insert(const std::string &Key, const JobResult &R);
  size_t size() const;

  /// All entries ordered by key: the deterministic iteration order the
  /// on-disk store serializes in.
  std::vector<std::pair<std::string, JobResult>> snapshot() const;

private:
  mutable std::mutex Mu;
  std::unordered_map<std::string, JobResult> Map;
};

/// Retired and unread. It stays only because e2ebench/driver.cpp still
/// sets `Opts.Incumbents = &Store.incumbents()`; the next benchmark
/// change deletes it, CampaignOptions::Incumbents and
/// CacheStore::incumbents() together with that line.
struct IncumbentStore {};

struct CampaignOptions {
  /// Worker threads. 0 picks std::thread::hardware_concurrency().
  unsigned Jobs = 1;
  /// Deduplicate identical configurations instead of re-running them.
  bool UseCache = true;
  /// Template for per-job pipeline options; each job snapshots this and
  /// overlays its own axes (knobs, device power model, frequency mode).
  ///
  /// Base.Solver.WarmNodes is also the campaign's solve-reuse switch. On
  /// (the default), jobs that differ only in the Xlimit/Rspare knobs run
  /// as one group task: parameters extracted and the ILP built once, knob
  /// points solved as warm-started RHS patches, coinciding placements
  /// measured once, and groups posing a bit-identical ILP sharing one
  /// solve chain. The knob points of a group serialize on one worker by
  /// design — that is what buys the 1-extraction/1-cold-solve guarantee —
  /// so a grid's parallelism is its benchmark x level x device x freq
  /// spread. Off is the fully cold reference solver (`--reuse` without
  /// the `solve` token): every job is scheduled on its own and every
  /// branch & bound node re-solves from scratch. Reports stay
  /// byte-identical either way whenever every solve proves optimality
  /// (see the file comment).
  PipelineOptions Base;
  /// Optional cross-campaign cache.
  ResultCache *Cache = nullptr;
  /// Share device-independent execution profiles between jobs, so grid
  /// points differing only in device recost one simulation instead of
  /// re-executing, and derive optimized images' profiles from their
  /// baselines', building each program and placement once for all
  /// devices (reports stay byte-identical either way; false simulates
  /// every run, and every solve group builds its own program).
  bool ReuseProfiles = true;
  /// Optional cross-campaign profile cache (e.g. CacheStore::profiles()).
  /// When null and ReuseProfiles is true the campaign uses a private one;
  /// when null and ReuseProfiles is false every run simulates. Either
  /// way this decides the jobs' cache: Base.Profiles is overwritten.
  ProfileCache *Profiles = nullptr;
  /// Retired and unread (see IncumbentStore): nothing is planted.
  /// Deleted together with e2ebench/driver.cpp's line that sets it.
  IncumbentStore *Incumbents = nullptr;
  /// Registry the campaign records its effort counters into (campaign.*
  /// keys: extractions, cold/warm/replayed/dominated solves, cache hits,
  /// solve histograms, one campaign.wall_seconds
  /// sample, and campaign.sim.full_sims / campaign.sim.recosts, the
  /// growth of the global sim.* counters over the run, with or without
  /// profile reuse). It is the one record of that effort; the
  /// Summary holds only what the results themselves determine. Null uses
  /// a campaign-private registry; `ramloc-batch --metrics` passes
  /// globalMetrics() so one snapshot carries the campaign.* keys next to
  /// the deep layers' mip.*/sim.*/jobqueue.*/cache.* keys. Metrics are a
  /// side channel: reports are byte-identical whether or not a registry
  /// is attached.
  MetricsRegistry *Metrics = nullptr;
  /// Progress callback, invoked serialized (never concurrently) after
  /// each unique job finishes.
  std::function<void(const JobResult &, unsigned Done, unsigned Total)>
      Progress;
  /// Journal callback, invoked serialized (under the same lock as
  /// Progress) after each unique job finishes — the crash-safety hook
  /// `ramloc-batch --cache-dir` wires to CacheStore::appendJournal so a
  /// killed campaign's finished jobs survive and `--resume` replays
  /// them. Every invocation bumps the `campaign.journal.appends`
  /// counter of the campaign's registry, so telemetry shows how much progress a kill would have
  /// preserved. Unlike the results cache, the journal also records
  /// failed and degraded jobs: its contract is "reproduce the
  /// interrupted run's report exactly", not "store only trustworthy
  /// optima".
  std::function<void(const JobResult &)> Journal;
};

/// Aggregate statistics over a campaign's results, and a pure function
/// of them (computeSummary). How much work a run took is counted in the
/// metrics registry (CampaignOptions::Metrics), not here.
struct CampaignSummary {
  unsigned Total = 0;
  unsigned Succeeded = 0;
  unsigned Failed = 0;
  /// Jobs served from the result cache or copied from a duplicate
  /// (JobResult::CacheHit); the other Total - CacheHits jobs ran.
  unsigned CacheHits = 0;
  unsigned UniqueRuns = 0;
  /// Geometric mean of opt/base measured energy over succeeded Measure
  /// jobs (1.0 when there are none).
  double GeomeanEnergyRatio = 1.0;
  double MeanEnergyPct = 0.0;
  double MeanTimePct = 0.0;
  double MeanPowerPct = 0.0;
  /// Succeeded jobs whose SolveOutcome is not Optimal — best-effort
  /// answers under a solver limit. Surfaced in the CLI summary, excluded
  /// from serialized reports like every other provenance field.
  unsigned Degraded = 0;
};

struct CampaignResult {
  /// One entry per requested job, in expansion/submission order.
  std::vector<JobResult> Results;
  CampaignSummary Summary;
};

/// Aggregates \p Results into their summary. runCampaign, report
/// parsing and shard merging all use it, so a merged report carries
/// exactly the summary an unsharded run would have produced.
CampaignSummary computeSummary(const std::vector<JobResult> &Results);

/// The half-open job-index range [first, second) of shard \p Index (1-based)
/// of \p Count over \p Total jobs in expansion order. Shards are contiguous,
/// disjoint, exhaustive and balanced to within one job, so concatenating the
/// shards 1..Count in order reproduces the full expansion. Out-of-range
/// shards (Index == 0 or Index > Count) yield an empty range.
std::pair<size_t, size_t> shardRange(size_t Total, unsigned Index,
                                     unsigned Count);

/// Runs one configuration synchronously. \p Base supplies the fields a
/// JobSpec does not cover (timing model, linker map, MIP budget, ...).
JobResult runJob(const JobSpec &Spec, const PipelineOptions &Base = {});

/// Runs an explicit job list. Deduplication is decided up front from the
/// cache keys, so results are independent of Opts.Jobs.
CampaignResult runCampaign(const std::vector<JobSpec> &Jobs,
                           const CampaignOptions &Opts = {});

/// Convenience: expand + run.
CampaignResult runCampaign(const GridSpec &Grid,
                           const CampaignOptions &Opts = {});

} // namespace ramloc

#endif // RAMLOC_CAMPAIGN_CAMPAIGN_H
