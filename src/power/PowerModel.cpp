//===- power/PowerModel.cpp - Figure 1 power table ----------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "power/PowerModel.h"

#include "sim/RunStats.h"
#include "support/Random.h"

#include <cassert>

using namespace ramloc;

PowerModel PowerModel::stm32f100() {
  PowerModel PM;
  auto set = [&PM](MemKind M, InstrClass C, double MilliW) {
    PM.MilliWatts[static_cast<unsigned>(M)][static_cast<unsigned>(C)] =
        MilliW;
  };
  // Flash execution: 14-16 mW (Figure 1, left bars).
  set(MemKind::Flash, InstrClass::Nop, 14.2);
  set(MemKind::Flash, InstrClass::Alu, 15.0);
  set(MemKind::Flash, InstrClass::Mul, 15.6);
  set(MemKind::Flash, InstrClass::Div, 15.6);
  set(MemKind::Flash, InstrClass::Load, 16.1);
  set(MemKind::Flash, InstrClass::Store, 15.2);
  set(MemKind::Flash, InstrClass::Branch, 14.6);
  // RAM execution: roughly half the power (Figure 1, right bars).
  set(MemKind::Ram, InstrClass::Nop, 7.9);
  set(MemKind::Ram, InstrClass::Alu, 8.5);
  set(MemKind::Ram, InstrClass::Mul, 9.0);
  set(MemKind::Ram, InstrClass::Div, 9.0);
  set(MemKind::Ram, InstrClass::Load, 9.6);
  set(MemKind::Ram, InstrClass::Store, 9.2);
  set(MemKind::Ram, InstrClass::Branch, 8.6);
  // Loads split by data source. RAM code loading from flash is the one
  // case where RAM execution is NOT cheaper (Figure 1, last bar).
  PM.LoadMilliWatts[0][0] = 16.1; // flash code, flash data
  PM.LoadMilliWatts[0][1] = 15.3; // flash code, RAM data
  PM.LoadMilliWatts[1][0] = 15.8; // RAM code, flash data (expensive!)
  PM.LoadMilliWatts[1][1] = 9.6;  // RAM code, RAM data
  return PM;
}

PowerModel PowerModel::withDeviceVariation(uint64_t Seed,
                                           double Sigma) const {
  assert(Sigma >= 0.0 && Sigma < 1.0 && "variation fraction range");
  PowerModel PM = *this;
  SplitMix64 Rng(Seed ^ 0x50574D4F44454Cull);
  auto perturb = [&Rng, Sigma](double V) {
    return V * (1.0 + Sigma * (2.0 * Rng.nextDouble() - 1.0));
  };
  // forEachActiveValue's order matches the loops this code used to spell
  // out, so existing seeds keep producing the same device tables.
  PM.forEachActiveValue([&perturb](double &V) { V = perturb(V); });
  PM.SleepMilliWatts = perturb(PM.SleepMilliWatts);
  return PM;
}

double PowerModel::powerFor(MemKind Fetch, InstrClass C,
                            MemKind Data) const {
  unsigned F = static_cast<unsigned>(Fetch);
  if (C == InstrClass::Load)
    return LoadMilliWatts[F][static_cast<unsigned>(Data)];
  return MilliWatts[F][static_cast<unsigned>(C)];
}

namespace {

/// Energy (mJ) of the cycles fetched from memory \p F: the class table
/// for all but loads, the load split for loads. The one energy formula
/// behind both whole runs and power-profile samples.
double fetchMilliJoules(const PowerModel &PM,
                        const uint64_t (&ClassCycles)[2][7],
                        const uint64_t (&LoadCycles)[2][2], unsigned F) {
  double MilliJ = 0.0;
  for (unsigned C = 0; C != 7; ++C) {
    if (C == static_cast<unsigned>(InstrClass::Load))
      continue;
    MilliJ += static_cast<double>(ClassCycles[F][C]) * PM.MilliWatts[F][C] /
              PM.ClockHz;
  }
  for (unsigned D = 0; D != 2; ++D)
    MilliJ += static_cast<double>(LoadCycles[F][D]) *
              PM.LoadMilliWatts[F][D] / PM.ClockHz;
  return MilliJ;
}

} // namespace

EnergyReport PowerModel::integrate(const RunStats &Stats) const {
  assert(ClockHz > 0 && "clock must be positive");
  EnergyReport R;
  R.Seconds = static_cast<double>(Stats.Cycles) / ClockHz;
  R.FlashMilliJoules =
      fetchMilliJoules(*this, Stats.ClassCycles, Stats.LoadCycles, 0);
  R.RamMilliJoules =
      fetchMilliJoules(*this, Stats.ClassCycles, Stats.LoadCycles, 1);
  R.MilliJoules = R.FlashMilliJoules + R.RamMilliJoules;
  R.AvgMilliWatts = R.Seconds > 0 ? R.MilliJoules / R.Seconds : 0.0;
  return R;
}

double PowerModel::averageMilliWatts(const PowerSample &Sample) const {
  if (Sample.Cycles == 0)
    return 0.0;
  double MilliJ =
      fetchMilliJoules(*this, Sample.ClassCycles, Sample.LoadCycles, 0) +
      fetchMilliJoules(*this, Sample.ClassCycles, Sample.LoadCycles, 1);
  double Seconds = static_cast<double>(Sample.Cycles) / ClockHz;
  return MilliJ / Seconds;
}

namespace {

/// A representative dynamic instruction mix used to collapse the class
/// table into the paper's single Eflash/Eram coefficients.
struct MixEntry {
  InstrClass C;
  double Weight;
};
constexpr MixEntry TypicalMix[] = {
    {InstrClass::Alu, 0.45},  {InstrClass::Load, 0.20},
    {InstrClass::Store, 0.10}, {InstrClass::Branch, 0.15},
    {InstrClass::Mul, 0.05},  {InstrClass::Nop, 0.05},
};

} // namespace

double PowerModel::eFlash() const {
  double P = 0.0;
  for (const MixEntry &E : TypicalMix)
    P += E.Weight * powerFor(MemKind::Flash, E.C, MemKind::Flash);
  return P;
}

double PowerModel::eRam() const {
  double P = 0.0;
  for (const MixEntry &E : TypicalMix)
    P += E.Weight * powerFor(MemKind::Ram, E.C, MemKind::Ram);
  return P;
}
