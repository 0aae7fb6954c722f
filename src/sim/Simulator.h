//===- sim/Simulator.h - Cortex-M3-like interpreter -------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A functional interpreter for linked images, standing in for the
/// paper's power-instrumented STM32VLDISCOVERY board. It only counts: per
/// static instruction it records what executed (condition skips, taken
/// branches, load data memories) into an ExecutionProfile. It knows
/// nothing about cycles; every RunStats comes from pricing that profile
/// under a TimingModel (runImage, recostProfile in sim/ExecutionProfile.h),
/// so a run and a recost share one timing path.
///
/// Execution is one dispatch loop (Simulator::exec) the compiler sees
/// whole: one switch over the predecoded opcode (sim/Predecode.h) per
/// step, with the register file, the step count, the packed NZCV flags,
/// the memory-map bounds and the profile's counters held in locals and
/// written back when the loop exits. run() and step() are that loop with
/// different step limits, so stepping an image and running it agree on
/// every count. A block's execution count is its head instruction's
/// Exec + Skipped, so the loop keeps no block counter: the counts are
/// copied into ExecutionProfile::BlockCounts when a call returns.
///
/// Architectural conventions:
///  - Registers r0-r12, sp (full-descending), lr, pc; NZCV flags.
///  - The run starts at the image entry with lr = ExitAddress; returning
///    to ExitAddress or executing bkpt halts the run.
///  - r0 at halt is reported as the exit code (workload checksum).
///  - A faulting access records the first fault and the instruction
///    completes (a faulting load reads 0); the run stops after it.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_SIM_SIMULATOR_H
#define RAMLOC_SIM_SIMULATOR_H

#include "layout/Image.h"
#include "sim/Predecode.h"

#include <cstdint>
#include <string>

namespace ramloc {

struct ExecutionProfile;

/// The magic return address that terminates simulation when jumped to.
inline constexpr uint32_t ExitAddress = 0xFFFFFFF0;

/// Architectural machine state, exposed for unit tests.
struct MachineState {
  uint32_t R[16] = {};
  Flags F;

  bool operator==(const MachineState &O) const = default;
};

/// Functional executor over one image.
class Simulator {
public:
  /// Binds \p Prof as the run's profile: it is (re)initialized to the
  /// image's shape, and every step's counts accumulate into it. The run
  /// stops after \p MaxSteps steps; a run that halts cleanly marks the
  /// profile Valid.
  Simulator(const Image &Img, ExecutionProfile &Prof,
            uint64_t MaxSteps = UINT64_MAX);

  /// Executes one instruction; returns false once halted, faulted or out
  /// of steps.
  bool step();

  /// Runs until halt, fault or the step budget.
  void run();

  const MachineState &state() const { return State; }
  MachineState &state() { return State; }
  /// True once the run halted or faulted (false if it ran out of steps).
  bool halted() const { return Halted; }
  /// The fault message; empty unless the run faulted.
  const std::string &error() const { return Error; }
  /// Index (into Image::Instrs) of the instruction the last step fetched.
  uint32_t lastIndex() const { return CurIdx; }

private:
  /// The dispatch loop: executes until halt, fault, or Prof.Instructions
  /// reaches \p Limit.
  void exec(uint64_t Limit);
  /// Copies the execution count of the block headed by instruction
  /// \p Idx, if any, into Prof.BlockCounts.
  void syncBlockCount(uint32_t Idx);

  void fault(const std::string &Msg);
  /// A read or write of \p Addr by instruction \p Idx hit no mapped
  /// memory that allows it.
  void accessFault(bool Write, uint32_t Addr, uint32_t Idx);
  void halt();

  const Image &Img;
  ExecutionProfile &Prof;
  uint64_t MaxSteps;
  MachineState State;
  /// Pre-resolved operands and successors, parallel to Img.Instrs.
  DecodedImage Dec;
  /// Index of the next instruction to execute, or NoInstrIdx (a fetch
  /// fault at PcAddr, which is set only then).
  uint32_t PcIdx = NoInstrIdx;
  uint32_t PcAddr = 0;
  /// Index of the instruction the last step fetched.
  uint32_t CurIdx = 0;
  bool Halted = false;
  std::string Error;
  /// RAM contents (mutable); flash is read from the image (writes fault).
  std::vector<uint8_t> Ram;
};

} // namespace ramloc

#endif // RAMLOC_SIM_SIMULATOR_H
