//===- sim/RunStats.h - execution statistics --------------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a priced run reports: cycle counts attributed per (fetch memory,
/// instruction class), load cycles further split by data memory (for the
/// Figure 1 "RAM code loading flash" case), contention stalls, and
/// per-block execution counts (the profiled Fb of Figure 5).
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_SIM_RUNSTATS_H
#define RAMLOC_SIM_RUNSTATS_H

#include "isa/OpKind.h"
#include "mir/Module.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ramloc {

/// Cycle attribution for one sampling interval of runImageSampled: the
/// same matrices as the whole-run statistics, windowed. PowerModel::averageMilliWatts turns a
/// sample into a point on a power-vs-time profile (Figure 7).
struct PowerSample {
  uint64_t Cycles = 0;
  uint64_t ClassCycles[2][7] = {};
  uint64_t LoadCycles[2][2] = {};
};

/// Execution statistics of one run, priced under one timing model.
struct RunStats {
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  /// Cycles per [fetch memory][instruction class]; loads are *also*
  /// accounted here (for totals) and split in LoadCycles.
  uint64_t ClassCycles[2][7] = {};
  /// Load-class cycles per [fetch memory][data memory].
  uint64_t LoadCycles[2][2] = {};
  /// Extra stalls from fetch/data contention on the RAM port (the
  /// behaviour the model's Lb / Or(b) term estimates).
  uint64_t ContentionStalls = 0;
  /// Extra cycles spent waiting on flash fetches (TimingModel's
  /// FlashWaitStates; zero on the reference zero-wait-state device).
  uint64_t FlashWaitCycles = 0;
  /// wfi executions (sleep markers for the case-study workloads).
  uint64_t SleepEvents = 0;
  /// Per-block execution counts, indexed [function][block].
  std::vector<std::vector<uint64_t>> BlockCounts;
  /// r0 at the halting bkpt: workload checksum by convention.
  uint32_t ExitCode = 0;
  /// Non-empty if the run faulted (bad memory access, cycle budget, ...).
  std::string Error;
  bool HitCycleLimit = false;

  bool ok() const { return Error.empty(); }

  uint64_t fetchCycles(MemKind M) const {
    uint64_t Sum = 0;
    for (unsigned C = 0; C != 7; ++C)
      Sum += ClassCycles[static_cast<unsigned>(M)][C];
    return Sum;
  }

  /// Flattens block counts into the "func:label" keyed map consumed by
  /// moduleFrequencyFromProfile (the Figure 5 "w/Frequency" runs).
  std::map<std::string, uint64_t> profileMap(const Module &M) const;
};

} // namespace ramloc

#endif // RAMLOC_SIM_RUNSTATS_H
