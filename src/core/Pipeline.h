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
/// stages, split where the device enters. The device-free half builds:
/// verification, the baseline link and execution key (linkImage), and
/// per placement applyPlacement + verify + link + profile derivation
/// (buildPlacement). The per-device half prices: the baseline's
/// measurement and parameter extraction under the device's timing
/// (extractModule), the solve stage (core/IlpModel's PlacementSolver: the
/// ILP built once, knob points as warm-started RHS patches) and the
/// optimized image's price (measurePlacement). With a ProfileCache,
/// extraction keeps the baseline's linked image and recorded profile,
/// each optimized image's profile is derived from them
/// (deriveOptimizedProfile), and every device prices it rather than
/// simulating it. The campaign engine drives the stages directly, so a
/// grid builds each program and each distinct placement once and pays
/// one extraction and one cold solve per (benchmark, device), not one per
/// grid point; optimizeModule is exactly the staged composition, so the
/// two paths cannot drift apart.
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
#include "sim/ProfileCache.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace ramloc {

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

/// A linked program and its execution key: what a keyed measurement
/// looks its profile up by. Device-free, so one serves every device.
struct LinkedImage {
  std::shared_ptr<const Image> Img;
  /// executionKey(*Img); empty unless linked with \p Keyed.
  std::string Key;
  /// "link failed: <first error>" when the module did not link.
  std::string Error;

  bool ok() const { return Error.empty(); }
};

/// Links \p M and, when \p Keyed, computes its execution key.
LinkedImage linkImage(const Module &M, const LinkOptions &Link, bool Keyed);

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
Measurement measureModule(const Module &M, const PowerModel &Power,
                          const LinkOptions &Link = {},
                          const SimOptions &Sim = {},
                          ProfileCache *Profiles = nullptr);

/// Pipeline configuration.
struct PipelineOptions {
  ModelKnobs Knobs;
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
  /// measured through a ProfileCache: buildPlacement derives every
  /// optimized image's profile from them. Shared by every build.
  ProfiledImage Base;
  ModelParams MP;
  ModelEstimate PredictedBase;
  std::string Error;

  bool ok() const { return Error.empty(); }
};

/// Extract stage: verifies \p M, links its baseline when it is measured
/// and runs the overload below under an "extract" trace span.
/// \p NeedBaseline requests the baseline measurement even when static
/// frequencies make it unnecessary for extraction (Measure jobs report
/// it; ModelOnly jobs skip it unless profiling).
ExtractedModule extractModule(const Module &M, const PipelineOptions &Opts,
                              bool NeedBaseline = true);

/// Extract stage over an already verified \p M and its built baseline
/// \p Base (linkImage with Opts.Link, keyed when Opts.Profiles is set),
/// which is read only when the baseline is measured: the baseline's
/// measurement under the device, block frequencies and parameter
/// extraction. Opens no trace span of its own.
ExtractedModule extractModule(const Module &M, const LinkedImage &Base,
                              const PipelineOptions &Opts,
                              bool NeedBaseline = true);

/// The device-free half of the apply stage: \p InRam applied to \p M,
/// the result verified and linked and, against a profiled \p Baseline,
/// its profile derived (deriveOptimizedProfile). Deterministic in its
/// arguments, and \p MP enters only through its block numbering, so one
/// build serves every device and knob point that chose the placement.
/// Derivation is exact only when
///  - every block matches its baseline block or a Figure 4 rewrite of it;
///  - every RAM data/bss symbol keeps its address;
///  - the baseline run touched no RAM between its static RAM end and the
///    optimized image's (ExecutionProfile::RamLow);
///  - no non-literal load read code or pool bytes (ReadsCode);
/// and each device's price must still fit its cycle budget
/// (measurePlacement).
struct PlacementBuild {
  Module Optimized;
  InstrumenterStats Rewrites;
  /// "post-transform verifier: <first diagnostic>" when the placement
  /// does not verify; nothing below is filled then.
  std::string Error;
  /// The linked optimized image (unkeyed), or why it did not link.
  LinkedImage Linked;
  /// The profile derived from the baseline's; null when it did not derive.
  std::shared_ptr<const ExecutionProfile> Derived;
  /// Why it did not derive ("shape", "ram-overlap", "code-read",
  /// "no-mark"); empty when it did, or when there was no baseline profile.
  std::string Fallback;
};

PlacementBuild buildPlacement(const Module &M, const ModelParams &MP,
                              const Assignment &InRam,
                              const LinkOptions &Link,
                              const ProfiledImage *Baseline);

/// The per-device half of the apply stage: prices \p B under Opts.Power
/// and Opts.Sim and assembles the PipelineResult, including the baseline
/// numbers carried by \p EM (Optimized and Rewrites are left empty).
///
/// With Opts.Profiles, a derived profile is recosted under Sim.Timing and
/// counted as derived. A derived price over Sim.MaxCycles, or a
/// placement that did not derive, counts under
/// sim.derive_fallback.<reason> ("over-budget" or B.Fallback) and takes
/// measureModule's keyed-cache path. Without a cache the image is
/// simulated. \p FullImage, when set, rebuilds the image those paths run because
/// B.Linked.Img holds only what recostProfile reads (Instrs, Map,
/// BlockAddr, StartupCopyCycles); the apply + link is deterministic, so
/// the bytes are the same.
PipelineResult measurePlacement(
    const ExtractedModule &EM, const PlacementBuild &B,
    const Assignment &InRam, const MipSolution &Solver,
    const PipelineOptions &Opts,
    const std::function<std::shared_ptr<const Image>()> &FullImage = {});

/// Apply-and-measure stage: buildPlacement against EM's baseline, then
/// measurePlacement, under one "apply" trace span, with Optimized and
/// Rewrites filled. Deterministic in its arguments.
PipelineResult applyAndMeasure(const Module &M, const ExtractedModule &EM,
                               const Assignment &InRam,
                               const MipSolution &Solver,
                               const PipelineOptions &Opts);

} // namespace ramloc

#endif // RAMLOC_CORE_PIPELINE_H
