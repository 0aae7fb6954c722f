//===- sim/ExecutionProfile.cpp - device-independent run profile ---------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/ExecutionProfile.h"

#include "sim/Simulator.h"
#include "support/Format.h"
#include "support/Json.h"

#include <cassert>

using namespace ramloc;

std::string ramloc::executionKey(const Image &Img, uint32_t Arg0,
                                 uint32_t Arg1, uint32_t Arg2) {
  return formatString(
      "%016llx:%08x:%08x:%08x",
      static_cast<unsigned long long>(Img.fingerprint()), Arg0, Arg1,
      Arg2);
}

std::map<std::string, uint64_t> RunStats::profileMap(const Module &M) const {
  std::map<std::string, uint64_t> Out;
  for (unsigned F = 0, NF = BlockCounts.size(); F != NF; ++F) {
    assert(F < M.Functions.size() && "stats do not match module");
    const Function &Fn = M.Functions[F];
    for (unsigned B = 0, NB = BlockCounts[F].size(); B != NB; ++B)
      Out[Fn.Name + ":" + Fn.Blocks[B].Label] = BlockCounts[F][B];
  }
  return Out;
}

namespace {

/// Adds what \p C — the dynamic counts of static instruction \p I of
/// \p Img, over a whole run or a single step — costs under \p T to \p RS.
/// Returns false on counts no run can produce.
bool priceInstr(const Image &Img, size_t I, const InstrCounts &C,
                const TimingModel &T, RunStats &RS) {
  const PlacedInstr &P = Img.Instrs[I];
  unsigned F = static_cast<unsigned>(Img.Map.regionOf(P.Addr));
  unsigned Cls = static_cast<unsigned>(opClass(P.I.Kind));
  uint64_t Wait =
      F == static_cast<unsigned>(MemKind::Flash) ? T.FlashWaitStates : 0;
  OpKind K = P.I.Kind;
  bool CondBranch = P.I.isCondBranch();

  // A condition-failed instruction costs a skip cycle (plus the fetch's
  // wait states) against its own class, with no load side effects.
  uint64_t Cyc = C.Skipped * (T.SkippedCycles + Wait);
  if (Cls == static_cast<unsigned>(InstrClass::Load)) {
    // Each load execution is split by its data memory; a RAM fetch that
    // loads RAM pays the RAM-port contention stall (the model's Lb).
    if (C.LoadData[0] + C.LoadData[1] != C.Exec)
      return false;
    uint64_t Per = T.cycles(P.I, /*Taken=*/false) + Wait;
    for (unsigned D = 0; D != 2; ++D) {
      uint64_t Stall = F == static_cast<unsigned>(MemKind::Ram) &&
                               D == static_cast<unsigned>(MemKind::Ram)
                           ? T.RamContentionStall
                           : 0;
      RS.ContentionStalls += C.LoadData[D] * Stall;
      RS.LoadCycles[F][D] += C.LoadData[D] * (Per + Stall);
      Cyc += C.LoadData[D] * (Per + Stall);
    }
  } else if (CondBranch) {
    if (C.Taken > C.Exec)
      return false;
    Cyc += (C.Exec - C.Taken) * (T.cycles(P.I, /*Taken=*/false) + Wait) +
           C.Taken * (T.cycles(P.I, /*Taken=*/true) + Wait);
  } else {
    // Unconditional control flow always transfers; cycles() ignores the
    // flag outside conditional branches either way.
    bool Taken = K == OpKind::B || K == OpKind::Bl || K == OpKind::Blx ||
                 K == OpKind::Bx;
    Cyc += C.Exec * (T.cycles(P.I, Taken) + Wait);
  }
  RS.Cycles += Cyc;
  RS.ClassCycles[F][Cls] += Cyc;
  RS.FlashWaitCycles += (C.Exec + C.Skipped) * Wait;
  return true;
}

/// Completes \p RS, whose instruction costs are already priced: the
/// whole-run fields of \p Profile, the startup copy, the cycle budget.
void finishStats(const Image &Img, const ExecutionProfile &Profile,
                 const SimOptions &Opts, RunStats &RS) {
  RS.BlockCounts = Profile.BlockCounts;
  RS.Instructions = Profile.Instructions;
  RS.SleepEvents = Profile.SleepEvents;
  RS.ExitCode = Profile.ExitCode;
  if (Opts.IncludeStartupCopy && Img.StartupCopyCycles > 0) {
    // The boot loop runs from flash, streaming words from flash to RAM.
    RS.Cycles += Img.StartupCopyCycles;
    RS.ClassCycles[0][static_cast<unsigned>(InstrClass::Load)] +=
        Img.StartupCopyCycles;
    RS.LoadCycles[0][0] += Img.StartupCopyCycles;
  }
  if (RS.Cycles > Opts.MaxCycles) {
    RS.HitCycleLimit = true;
    RS.Error = "cycle limit exceeded";
  }
}

/// Prices \p Profile whether or not it is Valid; false if mis-shaped.
bool priceProfile(const Image &Img, const ExecutionProfile &Profile,
                  const SimOptions &Opts, RunStats &Out) {
  if (Profile.Instrs.size() != Img.Instrs.size() ||
      Profile.BlockCounts.size() != Img.BlockAddr.size())
    return false;
  for (unsigned F = 0, NF = Img.BlockAddr.size(); F != NF; ++F)
    if (Profile.BlockCounts[F].size() != Img.BlockAddr[F].size())
      return false;

  RunStats RS;
  for (size_t I = 0, N = Img.Instrs.size(); I != N; ++I) {
    const InstrCounts &C = Profile.Instrs[I];
    if ((C.Exec != 0 || C.Skipped != 0) &&
        !priceInstr(Img, I, C, Opts.Timing, RS))
      return false;
  }
  finishStats(Img, Profile, Opts, RS);
  Out = std::move(RS);
  return true;
}

/// Records why \p Sim stopped short of a clean halt: a fault, or the step
/// budget, which only a run over the cycle budget can exhaust.
void noteStop(const Simulator &Sim, RunStats &RS) {
  if (!Sim.error().empty()) {
    RS.Error = Sim.error();
    RS.HitCycleLimit = false;
  } else if (!Sim.halted()) {
    RS.HitCycleLimit = true;
    RS.Error = "cycle limit exceeded";
  }
}

} // namespace

RunStats ramloc::runImage(const Image &Img, const SimOptions &Opts,
                          uint32_t Arg0, uint32_t Arg1, uint32_t Arg2) {
  ExecutionProfile Profile;
  return runImageProfiled(Img, Opts, Profile, Arg0, Arg1, Arg2);
}

RunStats ramloc::runImageProfiled(const Image &Img, const SimOptions &Opts,
                                  ExecutionProfile &Profile, uint32_t Arg0,
                                  uint32_t Arg1, uint32_t Arg2) {
  Simulator Sim(Img, Profile, Opts.MaxCycles);
  Sim.state().R[R0] = Arg0;
  Sim.state().R[R1] = Arg1;
  Sim.state().R[R2] = Arg2;
  Sim.run();
  RunStats RS;
  bool Priced = priceProfile(Img, Profile, Opts, RS);
  assert(Priced && "the simulator's own profile is well-formed");
  (void)Priced;
  noteStop(Sim, RS);
  return RS;
}

RunStats ramloc::runImageSampled(const Image &Img, const SimOptions &Opts,
                                 uint64_t IntervalCycles,
                                 std::vector<PowerSample> &Samples) {
  ExecutionProfile Profile;
  Simulator Sim(Img, Profile, Opts.MaxCycles);
  // Per static instruction, the counts priced so far: a step's price is
  // that of its change in counts.
  std::vector<InstrCounts> Priced(Img.Instrs.size());
  RunStats RS, Mark; // Mark: RS at the last sample boundary
  auto closeSample = [&] {
    PowerSample S;
    S.Cycles = RS.Cycles - Mark.Cycles;
    for (unsigned F = 0; F != 2; ++F) {
      for (unsigned C = 0; C != 7; ++C)
        S.ClassCycles[F][C] = RS.ClassCycles[F][C] - Mark.ClassCycles[F][C];
      for (unsigned D = 0; D != 2; ++D)
        S.LoadCycles[F][D] = RS.LoadCycles[F][D] - Mark.LoadCycles[F][D];
    }
    Samples.push_back(S);
    Mark = RS;
  };

  for (bool More = true; More;) {
    More = Sim.step();
    uint32_t I = Sim.lastIndex();
    if (I >= Priced.size())
      continue;
    const InstrCounts &Now = Profile.Instrs[I];
    InstrCounts &Was = Priced[I];
    InstrCounts Step{Now.Exec - Was.Exec,
                     Now.Taken - Was.Taken,
                     Now.Skipped - Was.Skipped,
                     {Now.LoadData[0] - Was.LoadData[0],
                      Now.LoadData[1] - Was.LoadData[1]}};
    if (Step == InstrCounts{})
      continue; // nothing executed (halted, faulted on fetch, budget)
    Was = Now;
    bool Ok = priceInstr(Img, I, Step, Opts.Timing, RS);
    assert(Ok && "one step's counts are well-formed");
    (void)Ok;
    if (RS.Cycles - Mark.Cycles >= IntervalCycles)
      closeSample();
  }
  if (RS.Cycles > Mark.Cycles)
    closeSample(); // short tail interval
  finishStats(Img, Profile, Opts, RS);
  noteStop(Sim, RS);
  return RS;
}

bool ramloc::recostProfile(const Image &Img,
                           const ExecutionProfile &Profile,
                           const SimOptions &Opts, RunStats &Out) {
  return Profile.Valid && priceProfile(Img, Profile, Opts, Out);
}

namespace {

/// Strict non-negative integer extraction (doubles above 2^53 or with a
/// fractional part are corruption, not data).
bool asCount(const JsonValue &V, uint64_t &Out) {
  if (V.kind() != JsonValue::Kind::Number)
    return false;
  double D = V.number();
  if (D < 0 || D > 9007199254740992.0 ||
      D != static_cast<double>(static_cast<uint64_t>(D)))
    return false;
  Out = static_cast<uint64_t>(D);
  return true;
}

} // namespace

void ramloc::writeExecutionProfile(JsonWriter &W, const std::string &Key,
                                   const ExecutionProfile &Profile) {
  W.beginObject();
  W.field("key", Key);
  W.field("instructions", Profile.Instructions);
  W.field("sleep_events", Profile.SleepEvents);
  W.field("exit_code", static_cast<uint64_t>(Profile.ExitCode));
  // Optional keys (older parsers ignore them): no ram_low means unknown.
  if (Profile.RamLow != 0)
    W.field("ram_low", static_cast<uint64_t>(Profile.RamLow));
  if (Profile.ReadsCode)
    W.field("reads_code", true);
  W.key("blocks").beginArray();
  for (const std::vector<uint64_t> &F : Profile.BlockCounts) {
    W.beginArray();
    for (uint64_t B : F)
      W.value(B);
    W.endArray();
  }
  W.endArray();
  // One element per static instruction: a bare count when only Exec is
  // non-zero (the overwhelmingly common case), else the full 5-tuple
  // [exec, taken, skipped, load_flash, load_ram].
  W.key("instrs").beginArray();
  for (const InstrCounts &C : Profile.Instrs) {
    if (C.Taken == 0 && C.Skipped == 0 && C.LoadData[0] == 0 &&
        C.LoadData[1] == 0) {
      W.value(C.Exec);
      continue;
    }
    W.beginArray();
    W.value(C.Exec).value(C.Taken).value(C.Skipped);
    W.value(C.LoadData[0]).value(C.LoadData[1]);
    W.endArray();
  }
  W.endArray();
  W.endObject();
}

bool ramloc::parseExecutionProfile(const JsonValue &V, std::string &Key,
                                   ExecutionProfile &Out) {
  if (V.kind() != JsonValue::Kind::Object)
    return false;
  const JsonValue *K = V.find("key");
  const JsonValue *Instructions = V.find("instructions");
  const JsonValue *Sleep = V.find("sleep_events");
  const JsonValue *Exit = V.find("exit_code");
  const JsonValue *Blocks = V.find("blocks");
  const JsonValue *Instrs = V.find("instrs");
  if (!K || K->kind() != JsonValue::Kind::String || !Instructions ||
      !Sleep || !Exit || !Blocks ||
      Blocks->kind() != JsonValue::Kind::Array || !Instrs ||
      Instrs->kind() != JsonValue::Kind::Array)
    return false;

  ExecutionProfile P;
  uint64_t ExitCode = 0;
  if (!asCount(*Instructions, P.Instructions) ||
      !asCount(*Sleep, P.SleepEvents) || !asCount(*Exit, ExitCode) ||
      ExitCode > 0xFFFFFFFFull)
    return false;
  P.ExitCode = static_cast<uint32_t>(ExitCode);
  if (const JsonValue *Low = V.find("ram_low")) {
    uint64_t RamLow = 0;
    if (!asCount(*Low, RamLow) || RamLow > 0xFFFFFFFFull)
      return false;
    P.RamLow = static_cast<uint32_t>(RamLow);
  }
  if (const JsonValue *Code = V.find("reads_code")) {
    if (Code->kind() != JsonValue::Kind::Bool)
      return false;
    P.ReadsCode = Code->boolean();
  }

  for (const JsonValue &F : Blocks->items()) {
    if (F.kind() != JsonValue::Kind::Array)
      return false;
    std::vector<uint64_t> Counts;
    Counts.reserve(F.items().size());
    for (const JsonValue &B : F.items()) {
      uint64_t C = 0;
      if (!asCount(B, C))
        return false;
      Counts.push_back(C);
    }
    P.BlockCounts.push_back(std::move(Counts));
  }

  P.Instrs.reserve(Instrs->items().size());
  for (const JsonValue &E : Instrs->items()) {
    InstrCounts C;
    if (E.kind() == JsonValue::Kind::Number) {
      if (!asCount(E, C.Exec))
        return false;
    } else if (E.kind() == JsonValue::Kind::Array &&
               E.items().size() == 5) {
      if (!asCount(E.items()[0], C.Exec) ||
          !asCount(E.items()[1], C.Taken) ||
          !asCount(E.items()[2], C.Skipped) ||
          !asCount(E.items()[3], C.LoadData[0]) ||
          !asCount(E.items()[4], C.LoadData[1]))
        return false;
    } else {
      return false;
    }
    P.Instrs.push_back(C);
  }

  P.Valid = true;
  Key = K->string();
  Out = std::move(P);
  return true;
}
