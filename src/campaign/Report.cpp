//===- campaign/Report.cpp - campaign report serialization ---------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "campaign/Report.h"

#include "support/Format.h"
#include "support/Json.h"
#include "support/Table.h"

#include <fstream>
#include <sstream>

using namespace ramloc;

namespace {

void writeSpec(JsonWriter &W, const JobSpec &S) {
  W.field("benchmark", S.Benchmark);
  W.field("level", optLevelName(S.Level));
  W.field("repeat", S.Repeat);
  W.field("device", S.Device);
  W.field("rspare_bytes", S.RspareBytes);
  W.field("xlimit", S.Xlimit);
  W.field("freq", freqModeName(S.Freq));
  W.field("kind", jobKindName(S.Kind));
  W.field("config_hash", formatString("%016llx",
                                      static_cast<unsigned long long>(
                                          S.configHash())));
}

// --- parsing helpers ------------------------------------------------------

bool fail(std::string *Error, const std::string &Msg) {
  if (Error)
    *Error = Msg;
  return false;
}

const JsonValue *need(const JsonValue &V, const char *Key,
                      std::string *Error) {
  const JsonValue *F = V.find(Key);
  if (!F)
    fail(Error, std::string("missing field '") + Key + "'");
  return F;
}

bool needString(const JsonValue &V, const char *Key, std::string &Out,
                std::string *Error) {
  const JsonValue *F = need(V, Key, Error);
  if (!F)
    return false;
  if (F->kind() != JsonValue::Kind::String)
    return fail(Error, std::string("field '") + Key + "' is not a string");
  Out = F->string();
  return true;
}

bool needNumber(const JsonValue &V, const char *Key, double &Out,
                std::string *Error) {
  const JsonValue *F = need(V, Key, Error);
  if (!F)
    return false;
  if (F->kind() != JsonValue::Kind::Number)
    return fail(Error, std::string("field '") + Key + "' is not a number");
  Out = F->number();
  return true;
}

// The integer casts are range-checked: a corrupt store line may carry any
// JSON number, and an unrepresentable double-to-integer cast is UB (the
// sanitizer CI job would abort instead of skipping the entry).
bool needUnsigned(const JsonValue &V, const char *Key, unsigned &Out,
                  std::string *Error) {
  double D;
  if (!needNumber(V, Key, D, Error))
    return false;
  if (!(D >= 0.0) || D > 4294967295.0)
    return fail(Error, std::string("field '") + Key + "' out of range");
  Out = static_cast<unsigned>(D);
  return true;
}

bool needU64(const JsonValue &V, const char *Key, uint64_t &Out,
             std::string *Error) {
  double D;
  if (!needNumber(V, Key, D, Error))
    return false;
  if (!(D >= 0.0) || D >= 18446744073709551616.0) // 2^64
    return fail(Error, std::string("field '") + Key + "' out of range");
  Out = static_cast<uint64_t>(D);
  return true;
}

} // namespace

void ramloc::writeJobResult(JsonWriter &W, const JobResult &R) {
  W.beginObject();
  writeSpec(W, R.Spec);
  W.field("ok", R.ok());
  if (!R.ok()) {
    W.field("error", R.Error);
    W.endObject();
    return;
  }
  // The trust label, written only when degraded: a truncated proof must
  // say so in the report, while runs whose every solve proves optimality
  // keep the exact bytes every identity gate (jobs x shard x cache x
  // telemetry) has always compared. A missing field parses as Optimal
  // for the same reason.
  if (R.SolveOutcome != SolveStatus::Optimal)
    W.field("solve_status", solveStatusName(R.SolveOutcome));
  if (R.Spec.Kind == JobKind::Measure) {
    W.key("base").beginObject();
    W.field("energy_mj", R.BaseEnergyMilliJoules);
    W.field("seconds", R.BaseSeconds);
    W.field("power_mw", R.BaseAvgMilliWatts);
    W.field("cycles", R.BaseCycles);
    W.endObject();
    W.key("opt").beginObject();
    W.field("energy_mj", R.OptEnergyMilliJoules);
    W.field("seconds", R.OptSeconds);
    W.field("power_mw", R.OptAvgMilliWatts);
    W.field("cycles", R.OptCycles);
    W.endObject();
    W.key("delta").beginObject();
    W.field("energy_pct", R.energyPct());
    W.field("time_pct", R.timePct());
    W.field("power_pct", R.powerPct());
    W.endObject();
  }
  W.key("model").beginObject();
  W.field("base_energy_mj", R.PredictedBaseEnergyMilliJoules);
  W.field("opt_energy_mj", R.PredictedOptEnergyMilliJoules);
  W.field("base_cycles", R.PredictedBaseCycles);
  W.field("opt_cycles", R.PredictedOptCycles);
  W.field("ram_bytes", R.RamBytes);
  W.field("moved_blocks", R.MovedBlocks);
  W.endObject();
  // Solver-effort counters (ColdSolves/WarmSolves/IncumbentSeeds/pivots)
  // are deliberately NOT serialized: reports must not depend on how a
  // result was obtained, or the byte-identity guarantees (cached vs
  // computed, warm vs cold solves, seeded vs unseeded, any node order)
  // would be unachievable. parseJobResult still accepts
  // an optional "solver" block from diagnostic dialects, and --diff
  // ignores it.
  W.endObject();
}

bool ramloc::parseJobResult(const JsonValue &V, JobResult &Out,
                            std::string *Error) {
  if (V.kind() != JsonValue::Kind::Object)
    return fail(Error, "job entry is not an object");
  Out = JobResult{};

  std::string Level, Freq, Kind;
  if (!needString(V, "benchmark", Out.Spec.Benchmark, Error) ||
      !needString(V, "level", Level, Error) ||
      !needUnsigned(V, "repeat", Out.Spec.Repeat, Error) ||
      !needString(V, "device", Out.Spec.Device, Error) ||
      !needUnsigned(V, "rspare_bytes", Out.Spec.RspareBytes, Error) ||
      !needNumber(V, "xlimit", Out.Spec.Xlimit, Error) ||
      !needString(V, "freq", Freq, Error) ||
      !needString(V, "kind", Kind, Error))
    return false;
  if (!optLevelFromName(Level, Out.Spec.Level))
    return fail(Error, "unknown level '" + Level + "'");
  if (Freq == freqModeName(FreqMode::Static))
    Out.Spec.Freq = FreqMode::Static;
  else if (Freq == freqModeName(FreqMode::Profiled))
    Out.Spec.Freq = FreqMode::Profiled;
  else
    return fail(Error, "unknown freq mode '" + Freq + "'");
  if (Kind == jobKindName(JobKind::Measure))
    Out.Spec.Kind = JobKind::Measure;
  else if (Kind == jobKindName(JobKind::ModelOnly))
    Out.Spec.Kind = JobKind::ModelOnly;
  else
    return fail(Error, "unknown job kind '" + Kind + "'");

  const JsonValue *Ok = need(V, "ok", Error);
  if (!Ok)
    return false;
  if (Ok->kind() != JsonValue::Kind::Bool)
    return fail(Error, "field 'ok' is not a boolean");
  if (!Ok->boolean()) {
    if (!needString(V, "error", Out.Error, Error))
      return false;
    if (Out.Error.empty())
      Out.Error = "unspecified failure";
    return true;
  }

  // Optional degraded-solve label; absent means Optimal (the only case
  // the canonical dialect omits it).
  if (const JsonValue *Status = V.find("solve_status")) {
    if (Status->kind() != JsonValue::Kind::String)
      return fail(Error, "field 'solve_status' is not a string");
    if (!solveStatusFromName(Status->string(), Out.SolveOutcome))
      return fail(Error,
                  "unknown solve_status '" + Status->string() + "'");
  }

  if (Out.Spec.Kind == JobKind::Measure) {
    const JsonValue *Base = need(V, "base", Error);
    const JsonValue *Opt = Base ? need(V, "opt", Error) : nullptr;
    if (!Base || !Opt)
      return false;
    if (!needNumber(*Base, "energy_mj", Out.BaseEnergyMilliJoules, Error) ||
        !needNumber(*Base, "seconds", Out.BaseSeconds, Error) ||
        !needNumber(*Base, "power_mw", Out.BaseAvgMilliWatts, Error) ||
        !needU64(*Base, "cycles", Out.BaseCycles, Error) ||
        !needNumber(*Opt, "energy_mj", Out.OptEnergyMilliJoules, Error) ||
        !needNumber(*Opt, "seconds", Out.OptSeconds, Error) ||
        !needNumber(*Opt, "power_mw", Out.OptAvgMilliWatts, Error) ||
        !needU64(*Opt, "cycles", Out.OptCycles, Error))
      return false;
  }

  const JsonValue *Model = need(V, "model", Error);
  if (!Model)
    return false;
  if (!(needNumber(*Model, "base_energy_mj",
                   Out.PredictedBaseEnergyMilliJoules, Error) &&
        needNumber(*Model, "opt_energy_mj",
                   Out.PredictedOptEnergyMilliJoules, Error) &&
        needNumber(*Model, "base_cycles", Out.PredictedBaseCycles,
                   Error) &&
        needNumber(*Model, "opt_cycles", Out.PredictedOptCycles, Error) &&
        needUnsigned(*Model, "ram_bytes", Out.RamBytes, Error) &&
        needUnsigned(*Model, "moved_blocks", Out.MovedBlocks, Error)))
    return false;

  // Optional solver-effort diagnostics (not part of the canonical
  // dialect; never re-serialized): tolerate and absorb them so a report
  // annotated by an external tool still parses, compares and merges —
  // and so --diff can never mistake effort drift (a node-order or
  // incumbent-seeding change) for result drift. Unknown subfields
  // (pivot counts and whatever a future dialect adds) are skipped.
  if (const JsonValue *Solver = V.find("solver")) {
    if (Solver->kind() == JsonValue::Kind::Object) {
      auto grab = [&](const char *Key, unsigned &Field) {
        const JsonValue *F = Solver->find(Key);
        if (F && F->kind() == JsonValue::Kind::Number && F->number() >= 0 &&
            F->number() <= 4294967295.0)
          Field = static_cast<unsigned>(F->number());
      };
      grab("extractions", Out.Extractions);
      grab("cold_solves", Out.ColdSolves);
      grab("warm_solves", Out.WarmSolves);
      grab("incumbent_seeds", Out.IncumbentSeeds);
    }
  }
  return true;
}

std::string ramloc::campaignToJson(const CampaignResult &R, bool Pretty) {
  JsonWriter W(Pretty);
  W.beginObject();
  W.field("schema", "ramloc-campaign-v2");
  W.key("summary").beginObject();
  W.field("total", R.Summary.Total);
  W.field("succeeded", R.Summary.Succeeded);
  W.field("failed", R.Summary.Failed);
  W.field("geomean_energy_ratio", R.Summary.GeomeanEnergyRatio);
  W.field("mean_energy_pct", R.Summary.MeanEnergyPct);
  W.field("mean_time_pct", R.Summary.MeanTimePct);
  W.field("mean_power_pct", R.Summary.MeanPowerPct);
  W.endObject();
  W.key("jobs").beginArray();
  for (const JobResult &J : R.Results)
    writeJobResult(W, J);
  W.endArray();
  W.endObject();
  return W.str() + "\n";
}

bool ramloc::parseCampaignReport(const std::string &Doc, CampaignResult &Out,
                                 std::string *Error) {
  JsonValue V;
  if (!JsonValue::parse(Doc, V, Error))
    return false;
  const JsonValue *Schema = V.find("schema");
  if (!Schema || Schema->kind() != JsonValue::Kind::String)
    return fail(Error, "not a campaign report: missing schema");
  if (Schema->string() != "ramloc-campaign-v2")
    return fail(Error,
                "unsupported report schema '" + Schema->string() + "'");
  const JsonValue *Jobs = V.find("jobs");
  if (!Jobs || Jobs->kind() != JsonValue::Kind::Array)
    return fail(Error, "not a campaign report: missing jobs array");

  Out = CampaignResult{};
  Out.Results.reserve(Jobs->items().size());
  for (size_t I = 0; I != Jobs->items().size(); ++I) {
    JobResult R;
    std::string JobError;
    if (!parseJobResult(Jobs->items()[I], R, &JobError))
      return fail(Error,
                  formatString("job %zu: %s", I, JobError.c_str()));
    Out.Results.push_back(std::move(R));
  }
  Out.Summary = computeSummary(Out.Results);
  return true;
}

bool ramloc::mergeCampaignReports(const std::vector<std::string> &Docs,
                                  CampaignResult &Out, std::string *Error) {
  Out = CampaignResult{};
  for (size_t I = 0; I != Docs.size(); ++I) {
    CampaignResult Part;
    std::string PartError;
    if (!parseCampaignReport(Docs[I], Part, &PartError))
      return fail(Error,
                  formatString("report %zu: %s", I, PartError.c_str()));
    Out.Results.insert(Out.Results.end(),
                       std::make_move_iterator(Part.Results.begin()),
                       std::make_move_iterator(Part.Results.end()));
  }
  Out.Summary = computeSummary(Out.Results);
  return true;
}

std::string ramloc::campaignToCsv(const CampaignResult &R) {
  std::string Out = "benchmark,level,repeat,device,rspare_bytes,xlimit,"
                    "freq,kind,ok,error,"
                    "base_energy_mj,opt_energy_mj,base_seconds,opt_seconds,"
                    "base_power_mw,opt_power_mw,base_cycles,opt_cycles,"
                    "energy_pct,time_pct,power_pct,"
                    "model_base_energy_mj,model_opt_energy_mj,"
                    "model_base_cycles,model_opt_cycles,"
                    "ram_bytes,moved_blocks\n";
  auto csvField = [](const std::string &S) {
    if (S.find_first_of(",\"\n") == std::string::npos)
      return S;
    std::string Quoted = "\"";
    for (char C : S) {
      if (C == '"')
        Quoted += '"';
      Quoted += C;
    }
    return Quoted + "\"";
  };
  for (const JobResult &J : R.Results) {
    const JobSpec &S = J.Spec;
    Out += csvField(S.Benchmark) + ",";
    Out += std::string(optLevelName(S.Level)) + ",";
    Out += formatString("%u", S.Repeat) + ",";
    Out += csvField(S.Device) + ",";
    Out += formatString("%u", S.RspareBytes) + ",";
    Out += jsonNumber(S.Xlimit) + ",";
    Out += std::string(freqModeName(S.Freq)) + ",";
    Out += std::string(jobKindName(S.Kind)) + ",";
    Out += std::string(J.ok() ? "1" : "0") + ",";
    Out += csvField(J.Error) + ",";
    if (J.ok() && S.Kind == JobKind::Measure) {
      Out += jsonNumber(J.BaseEnergyMilliJoules) + ",";
      Out += jsonNumber(J.OptEnergyMilliJoules) + ",";
      Out += jsonNumber(J.BaseSeconds) + ",";
      Out += jsonNumber(J.OptSeconds) + ",";
      Out += jsonNumber(J.BaseAvgMilliWatts) + ",";
      Out += jsonNumber(J.OptAvgMilliWatts) + ",";
      Out += formatString("%llu",
                          static_cast<unsigned long long>(J.BaseCycles)) +
             ",";
      Out += formatString("%llu",
                          static_cast<unsigned long long>(J.OptCycles)) +
             ",";
      Out += jsonNumber(J.energyPct()) + ",";
      Out += jsonNumber(J.timePct()) + ",";
      Out += jsonNumber(J.powerPct()) + ",";
    } else {
      Out += ",,,,,,,,,,,";
    }
    if (J.ok()) {
      Out += jsonNumber(J.PredictedBaseEnergyMilliJoules) + ",";
      Out += jsonNumber(J.PredictedOptEnergyMilliJoules) + ",";
      Out += jsonNumber(J.PredictedBaseCycles) + ",";
      Out += jsonNumber(J.PredictedOptCycles) + ",";
      Out += formatString("%u", J.RamBytes) + ",";
      Out += formatString("%u", J.MovedBlocks);
    } else {
      Out += ",,,,,";
    }
    Out += "\n";
  }
  return Out;
}

std::string ramloc::campaignToTable(const CampaignResult &R) {
  Table T({"benchmark", "level", "device", "Rspare", "Xlimit", "freq",
           "energy", "time", "power", "RAM", "status"});
  for (const JobResult &J : R.Results) {
    const JobSpec &S = J.Spec;
    std::string Status = !J.ok() ? "FAIL" : J.CacheHit ? "cached" : "ok";
    if (J.ok() && S.Kind == JobKind::Measure)
      T.addRow({S.Benchmark, optLevelName(S.Level), S.Device,
                formatString("%u", S.RspareBytes), formatDouble(S.Xlimit, 2),
                freqModeName(S.Freq),
                formatString("%+.1f%%", J.energyPct()),
                formatString("%+.1f%%", J.timePct()),
                formatString("%+.1f%%", J.powerPct()),
                formatString("%u B", J.RamBytes), Status});
    else if (J.ok())
      T.addRow({S.Benchmark, optLevelName(S.Level), S.Device,
                formatString("%u", S.RspareBytes), formatDouble(S.Xlimit, 2),
                freqModeName(S.Freq),
                formatString("%.2f uJ",
                             J.PredictedOptEnergyMilliJoules * 1e3),
                formatString("%.1f kcyc", J.PredictedOptCycles / 1e3),
                "-", formatString("%u B", J.RamBytes), Status});
    else
      T.addRow({S.Benchmark, optLevelName(S.Level), S.Device,
                formatString("%u", S.RspareBytes), formatDouble(S.Xlimit, 2),
                freqModeName(S.Freq), "-", "-", "-", "-", Status});
  }
  return T.render();
}

bool ramloc::writeTextFile(const std::string &Path, const std::string &Text,
                           std::string *Error) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    if (Error)
      *Error = "cannot open '" + Path + "' for writing";
    return false;
  }
  Out << Text;
  Out.close();
  if (!Out) {
    if (Error)
      *Error = "write to '" + Path + "' failed";
    return false;
  }
  return true;
}

bool ramloc::readTextFile(const std::string &Path, std::string &Out,
                          std::string *Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    if (Error)
      *Error = "cannot open '" + Path + "' for reading";
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  if (In.bad()) {
    if (Error)
      *Error = "read from '" + Path + "' failed";
    return false;
  }
  Out = Buf.str();
  return true;
}
