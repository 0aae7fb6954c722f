//===- core/Pipeline.h - end-to-end optimization ----------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full Section 3 methodology: extract parameters (statically
/// estimated or profiled Fb), build and solve the ILP, apply the Figure 4
/// transformation, and measure both versions on the simulated SoC.
///
/// The flow is exposed both as one call (optimizeModule) and as its
/// stages — extractModule (verify + baseline + frequencies + parameter
/// extraction, everything knob-independent), the solve stage
/// (core/IlpModel's PlacementSolver: the ILP built once, knob points as
/// warm-started RHS patches) and applyAndMeasure (transform + verify +
/// measure). With a ProfileCache, extraction keeps the baseline's linked
/// image and recorded profile, and each optimized image's profile is
/// derived from them (deriveOptimizedProfile) and priced, not simulated. The campaign engine drives the stages directly so a knob
/// grid pays one extraction and one cold solve per (benchmark, device)
/// instead of one per grid point; optimizeModule is exactly the staged
/// composition, so the two paths cannot drift apart.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_CORE_PIPELINE_H
#define RAMLOC_CORE_PIPELINE_H

#include "core/BlockParams.h"
#include "core/IlpModel.h"
#include "core/Instrumenter.h"
#include "layout/Linker.h"
#include "power/PowerModel.h"
#include "sim/ExecutionProfile.h"

#include <memory>
#include <string>
#include <vector>

namespace ramloc {

class ProfileCache;

/// One measured execution: hardware-style numbers from the simulator.
struct Measurement {
  RunStats Stats;
  EnergyReport Energy;

  bool ok() const { return Stats.ok(); }
};

/// A linked image and the valid profile its run recorded, shared rather
/// than copied: what an optimized image's profile is derived from.
struct ProfiledImage {
  std::shared_ptr<const Image> Img;
  std::shared_ptr<const ExecutionProfile> Profile;

  explicit operator bool() const { return Img && Profile; }
};

/// Links and runs \p M, integrating energy with \p Power. Link or run
/// failures are reported through Measurement::Stats.Error.
///
/// With a \p Profiles cache the run is satisfied simulate-once/cost-many:
/// the linked image's execution key is looked up, a hit is recosted to
/// this timing model in O(#instructions) (bit-identical to a full run),
/// and a miss simulates once while recording the profile for every later
/// caller — across devices, jobs and (via the persistent store)
/// processes. A run over Sim.MaxCycles is priced and fails with
/// HitCycleLimit like any other; only a key whose first run faulted or
/// ran out of steps is simulated again.
///
/// With a cache and a profiled \p Baseline — the run of the module \p M
/// is a placement of — the profile is first derived from the baseline's
/// (deriveOptimizedProfile) and priced: a recost, counted as derived,
/// with no execution key computed. Derivation is exact only when
///  - every block matches its baseline block or a Figure 4 rewrite of it;
///  - every RAM data/bss symbol keeps its address;
///  - the baseline run touched no RAM between its static RAM end and the
///    optimized image's (ExecutionProfile::RamLow);
///  - no non-literal load read code or pool bytes (ReadsCode);
///  - the priced total is within Sim.MaxCycles.
/// Any failure counts under sim.derive_fallback.<reason> ("shape",
/// "ram-overlap", "code-read", "no-mark", "over-budget") and takes the
/// cache/simulation path above, unchanged. \p Ran, when given, receives
/// the linked image and its valid profile (null when the run was
/// simulated without one).
Measurement measureModule(const Module &M, const PowerModel &Power,
                          const LinkOptions &Link = {},
                          const SimOptions &Sim = {},
                          ProfileCache *Profiles = nullptr,
                          const ProfiledImage *Baseline = nullptr,
                          ProfiledImage *Ran = nullptr);

/// Pipeline configuration.
struct PipelineOptions {
  ModelKnobs Knobs;
  FrequencyOptions Freq;
  ExtractOptions Extract;
  PowerModel Power = PowerModel::stm32f100();
  LinkOptions Link;
  SimOptions Sim;
  /// Exact-solver knobs (LP engine, branch & bound, limits) — one struct
  /// through the whole solve stage.
  SolverConfig Solver;
  /// Profile the unoptimized binary first and use measured block
  /// frequencies (the Figure 5 "w/Frequency" variant) instead of the
  /// static loop-depth estimate.
  bool UseProfiledFrequencies = false;
  /// Optional shared execution-profile cache: measurements recost a
  /// previously simulated execution instead of re-running it (see
  /// measureModule). The campaign engine points every job at one cache so
  /// the device axis shares profiles.
  ProfileCache *Profiles = nullptr;
};

/// Everything the optimization produced.
///
/// Thread safety: optimizeModule and measureModule are pure functions of
/// their const arguments — the library keeps no mutable global state, so
/// the campaign engine runs pipelines concurrently, one per worker, each
/// with its own Module and PipelineOptions snapshot. Callers sharing a
/// Module or PipelineOptions across threads must not mutate them while
/// runs are in flight.
struct PipelineResult {
  Module Optimized;
  Assignment InRam;
  /// Names ("func:label") of the blocks placed in RAM.
  std::vector<std::string> MovedBlocks;
  InstrumenterStats Rewrites;
  /// Model-side estimates for base and optimized placements.
  ModelEstimate PredictedBase;
  ModelEstimate PredictedOpt;
  MipSolution Solver;
  /// Measurements on the simulated SoC.
  Measurement MeasuredBase;
  Measurement MeasuredOpt;
  std::string Error;

  bool ok() const { return Error.empty(); }

  /// Measured percentage changes, optimized vs base (negative =
  /// improvement). Only meaningful when ok().
  double energyChangePct() const;
  double timeChangePct() const;
  double powerChangePct() const;
};

/// Runs the whole flow on \p M.
PipelineResult optimizeModule(const Module &M,
                              const PipelineOptions &Opts = {});

/// The knob-independent front half of the pipeline: verification, the
/// baseline measurement, block frequencies and parameter extraction. One
/// ExtractedModule feeds any number of knob points (its ModelParams is
/// what PlacementSolver is built from).
struct ExtractedModule {
  /// Filled when the baseline was measured (\p NeedBaseline, or profiled
  /// frequencies requested).
  Measurement MeasuredBase;
  /// The baseline's linked image and recorded profile, when it was
  /// measured through a ProfileCache: applyAndMeasure derives every
  /// optimized image's profile from them. Shared by every apply.
  ProfiledImage Base;
  ModelParams MP;
  ModelEstimate PredictedBase;
  std::string Error;

  bool ok() const { return Error.empty(); }
};

/// Extract stage. \p NeedBaseline requests the baseline measurement even
/// when static frequencies make it unnecessary for extraction (Measure
/// jobs report it; ModelOnly jobs skip it unless profiling).
ExtractedModule extractModule(const Module &M, const PipelineOptions &Opts,
                              bool NeedBaseline = true);

/// Apply-and-measure stage: applies \p InRam to \p M, re-verifies,
/// measures the optimized module and assembles the PipelineResult
/// (including the baseline numbers carried by \p EM). Deterministic in
/// its arguments: two calls with the same module, extraction and
/// assignment produce bit-identical results, which lets the campaign
/// engine share one call across knob points whose placements coincide.
PipelineResult applyAndMeasure(const Module &M, const ExtractedModule &EM,
                               const Assignment &InRam,
                               const MipSolution &Solver,
                               const PipelineOptions &Opts);

} // namespace ramloc

#endif // RAMLOC_CORE_PIPELINE_H
