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
/// block and per static instruction it records what executed (condition
/// skips, taken branches, load data memories) into an ExecutionProfile.
/// It knows nothing about cycles; every RunStats comes from pricing that
/// profile under a TimingModel (runImage, recostProfile in
/// sim/ExecutionProfile.h), so a run and a recost share one timing path.
///
/// The hot loop dispatches over a predecoded image (sim/Predecode.h): the
/// operand and successor lookups are resolved once per image instead of
/// once per step.
///
/// Architectural conventions:
///  - Registers r0-r12, sp (full-descending), lr, pc; NZCV flags.
///  - The run starts at the image entry with lr = ExitAddress; returning
///    to ExitAddress or executing bkpt halts the run.
///  - r0 at halt is reported as the exit code (workload checksum).
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
};

/// Single-stepping functional executor.
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
  uint32_t read32(uint32_t Addr);
  uint16_t read16(uint32_t Addr);
  uint8_t read8(uint32_t Addr);
  void write32(uint32_t Addr, uint32_t Value);
  void write16(uint32_t Addr, uint16_t Value);
  void write8(uint32_t Addr, uint8_t Value);
  bool checkAddr(uint32_t Addr, uint32_t Bytes, bool Write);

  void fault(const std::string &Msg);
  void halt();
  /// Counts a load of data memory \p DataMem by the current instruction.
  void countLoad(unsigned DataMem);
  /// Counts a non-literal load of \p Bytes at \p Addr, noting a read of
  /// code or pool bytes (ExecutionProfile::ReadsCode).
  void countDataLoad(uint32_t Addr, uint32_t Bytes);
  void execute(const DecodedInstr &D);
  void executeAlu(const DecodedInstr &D);
  void executeMem(const DecodedInstr &D);
  /// A computed transfer: resolves \p Addr to an instruction (or halts on
  /// ExitAddress).
  void branchTo(uint32_t Addr);
  /// A direct transfer to D's pre-resolved target.
  void jumpTo(const DecodedInstr &D);
  void fallThrough(const DecodedInstr &D);

  uint32_t &reg(Reg R) { return State.R[R]; }

  const Image &Img;
  ExecutionProfile &Prof;
  uint64_t MaxSteps;
  MachineState State;
  /// Pre-resolved handlers/operands, parallel to Img.Instrs.
  DecodedImage Dec;
  uint32_t PcAddr = 0;
  /// Index of the instruction at PcAddr, or NoInstrIdx (a fetch fault).
  uint32_t PcIdx = NoInstrIdx;
  /// Index of the instruction being executed (into Img.Instrs / Dec).
  uint32_t CurIdx = 0;
  bool Halted = false;
  std::string Error;
  /// RAM contents (mutable); flash is read from the image (writes fault).
  std::vector<uint8_t> Ram;
};

} // namespace ramloc

#endif // RAMLOC_SIM_SIMULATOR_H
