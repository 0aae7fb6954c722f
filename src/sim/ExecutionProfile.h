//===- sim/ExecutionProfile.h - device-independent run profile --*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execute/price split, and the one timing path. The architectural
/// instruction stream of a run depends only on (image, initial
/// arguments): a TimingModel changes how many cycles each step costs and
/// how they are attributed, never which instructions execute or what
/// values they compute. So the simulator (sim/Simulator.h) only records a
/// device-independent ExecutionProfile — per-block execution counts plus,
/// per static instruction, the dynamic facts timing cannot predict
/// (condition-failed skips, taken conditional branches, load data
/// memories) — and every RunStats is priced from such a profile, in one
/// pass over the static instructions: runImage prices the profile it just
/// recorded, recostProfile prices a shared one under another device. This
/// is the trace-once/cost-many structure the paper's own Fb/Cb/Lb model
/// implies: the campaign engine uses it to make the device axis of a grid
/// nearly free (1 full simulation + N-1 recosts instead of N simulations).
///
/// A run and a recost of the same execution are bit-identical by
/// construction, cycle budget included: a priced total above
/// SimOptions::MaxCycles is a "cycle limit exceeded" failure either way.
///
/// The same model makes the placement axis nearly free too. An optimized
/// image differs from its baseline only in block homes and the fixed
/// Figure 4 sequences, so its profile follows from the baseline's
/// (deriveOptimizedProfile, core/Instrumenter.h): the Fb/Cb/Lb
/// prediction, made exact. The derivation proves its preconditions per
/// run — the rewrite matches instruction by instruction, RAM data stays
/// put, the baseline run's stack stayed clear of the optimized image's
/// .ramcode (RamLow), no load read code or pool bytes as data
/// (ReadsCode) — and falls back to simulation otherwise. One assumption
/// cannot be checked per run: no program branches on, or computes with,
/// the value of a code or .rodata address (both move with the placement;
/// a pointer is only ever dereferenced or called). DeriveTest's
/// bit-identity sweep over BEEBS is its evidence.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_SIM_EXECUTIONPROFILE_H
#define RAMLOC_SIM_EXECUTIONPROFILE_H

#include "isa/Timing.h"
#include "layout/Image.h"
#include "sim/RunStats.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ramloc {

class JsonValue;
class JsonWriter;

/// How a run is priced and bounded.
struct SimOptions {
  TimingModel Timing;
  /// Cycle budget: a run whose priced total exceeds it fails with
  /// HitCycleLimit. The simulator stops after this many steps (every step
  /// costs at least one cycle), so runaway programs stay bounded.
  uint64_t MaxCycles = 4'000'000'000ULL;
  /// Account the startup .data/.ramcode copy loop (flash-fetched loads).
  bool IncludeStartupCopy = true;
};

/// Dynamic facts about one static instruction that a TimingModel cannot
/// predict. Everything else a recost needs (opcode, fetch memory, size,
/// literal-pool slot) is static and read from the Image.
struct InstrCounts {
  /// Condition-passed executions (including taken branches).
  uint64_t Exec = 0;
  /// Taken executions of a conditional branch (BCond/Cbz/Cbnz); always
  /// <= Exec, and 0 for every other opcode.
  uint64_t Taken = 0;
  /// Predicated executions whose condition failed (one skipped cycle).
  uint64_t Skipped = 0;
  /// Load executions split by data memory [flash, RAM]. For loads the two
  /// sum to Exec; 0 for non-loads.
  uint64_t LoadData[2] = {0, 0};

  bool operator==(const InstrCounts &O) const = default;
};

/// One run's device-independent execution record, parallel to
/// Image::Instrs. Collected by runImageProfiled(); consumed by
/// recostProfile().
struct ExecutionProfile {
  /// Per static instruction, indexed like Image::Instrs.
  std::vector<InstrCounts> Instrs;
  /// Per-block execution counts, indexed [function][block] (the Fb of
  /// Figure 5, identical to RunStats::BlockCounts).
  std::vector<std::vector<uint64_t>> BlockCounts;
  uint64_t Instructions = 0;
  uint64_t SleepEvents = 0;
  uint32_t ExitCode = 0;
  /// The lowest RAM address the run read or wrote at or above the image's
  /// static RAM end (Image::RamEnd) — in practice the deepest stack
  /// reach; the RAM top when the run touched none. 0 means unknown (a
  /// profile persisted without it), and such a profile never derives.
  uint32_t RamLow = 0;
  /// True when a non-literal load read code or literal-pool bytes (flash
  /// outside .rodata, or .ramcode): such a run's data depend on the
  /// placement, so its profile never derives.
  bool ReadsCode = false;
  /// True only when the profiled run halted cleanly (no fault, not cut
  /// off by the step budget), whatever it costs. Invalid profiles must
  /// never be recosted or persisted.
  bool Valid = false;

  bool operator==(const ExecutionProfile &O) const = default;
};

/// The key a profile is shared and persisted under: the image fingerprint
/// plus the initial r0-r2 arguments. Two runs with equal keys execute the
/// same instruction stream on every device.
std::string executionKey(const Image &Img, uint32_t Arg0 = 0,
                         uint32_t Arg1 = 0, uint32_t Arg2 = 0);

/// Runs \p Img from its entry to completion and prices the run under
/// \p Opts. \p Arg0..2 preload r0..r2 (workload parameters).
RunStats runImage(const Image &Img, const SimOptions &Opts = {},
                  uint32_t Arg0 = 0, uint32_t Arg1 = 0, uint32_t Arg2 = 0);

/// runImage() that also hands back the run's profile (into \p Profile).
RunStats runImageProfiled(const Image &Img, const SimOptions &Opts,
                          ExecutionProfile &Profile, uint32_t Arg0 = 0,
                          uint32_t Arg1 = 0, uint32_t Arg2 = 0);

/// runImage() that also records the power profile behind Figure 7: each
/// executed step is priced on its own, and a PowerSample is closed
/// whenever it holds at least \p IntervalCycles cycles (the last one may
/// be short). Samples exclude the startup copy. The returned stats are
/// the sum of the per-step prices and equal runImage()'s.
RunStats runImageSampled(const Image &Img, const SimOptions &Opts,
                         uint64_t IntervalCycles,
                         std::vector<PowerSample> &Samples);

/// Prices \p Profile under \p Opts: the RunStats runImage() would return
/// on this device, in O(#static instructions). Returns false — leaving
/// \p Out untouched — only when the profile is invalid or shaped for a
/// different image.
bool recostProfile(const Image &Img, const ExecutionProfile &Profile,
                   const SimOptions &Opts, RunStats &Out);

/// Serializes \p Profile as one compact JSON object carrying \p Key (the
/// profile-store dialect; only valid profiles should be written).
void writeExecutionProfile(JsonWriter &W, const std::string &Key,
                           const ExecutionProfile &Profile);

/// Parses an object written by writeExecutionProfile. Returns false on a
/// malformed document; on success \p Key and \p Out are filled and the
/// profile is marked Valid.
bool parseExecutionProfile(const JsonValue &V, std::string &Key,
                           ExecutionProfile &Out);

} // namespace ramloc

#endif // RAMLOC_SIM_EXECUTIONPROFILE_H
