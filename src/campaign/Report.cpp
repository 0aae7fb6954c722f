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
  std::string Hash;
  appendHex(Hash, S.configHash(), 16);
  W.field("config_hash", Hash);
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

/// Maps \p Name through an enum's inverse; an unknown name fails with
/// "unknown <What> '<Name>'".
template <typename E>
bool needEnum(const std::string &Name, bool (*FromName)(const std::string &,
                                                        E &),
              E &Out, const char *What, std::string *Error) {
  return FromName(Name, Out) ||
         fail(Error, std::string("unknown ") + What + " '" + Name + "'");
}

// --- the result numbers ---------------------------------------------------

/// The JSON objects a successful job's numbers live in, in report order.
/// Measure jobs carry all four; ModelOnly jobs only the model section.
enum Section { Base, Opt, Delta, Model, NumSections };
constexpr const char *SectionNames[NumSections] = {"base", "opt", "delta",
                                                   "model"};

/// One number of the job record: where the JSON report and the CSV put
/// it, and where it lives in JobResult — a stored member of one of three
/// widths, or (the delta percentages only) a getter deriving it from
/// stored members. Exactly one of the four pointers is set.
struct Field {
  Section Sec;
  const char *Key;    ///< JSON key inside SectionNames[Sec]
  const char *Column; ///< CSV column
  double JobResult::*Real = nullptr;
  unsigned JobResult::*U32 = nullptr;
  uint64_t JobResult::*U64 = nullptr;
  double (JobResult::*Derived)() const = nullptr;

  constexpr Field(Section S, const char *K, const char *C,
                  double JobResult::*M)
      : Sec(S), Key(K), Column(C), Real(M) {}
  constexpr Field(Section S, const char *K, const char *C,
                  unsigned JobResult::*M)
      : Sec(S), Key(K), Column(C), U32(M) {}
  constexpr Field(Section S, const char *K, const char *C,
                  uint64_t JobResult::*M)
      : Sec(S), Key(K), Column(C), U64(M) {}
  constexpr Field(Section S, const char *K, const char *C,
                  double (JobResult::*M)() const)
      : Sec(S), Key(K), Column(C), Derived(M) {}

  /// Whether \p R's serialized forms carry this number at all.
  bool carriedBy(const JobResult &R) const {
    return R.ok() && (Sec == Model || R.Spec.Kind == JobKind::Measure);
  }
  double number(const JobResult &R) const {
    return Real      ? R.*Real
           : U32     ? static_cast<double>(R.*U32)
           : U64     ? static_cast<double>(R.*U64)
                     : (R.*Derived)();
  }
  bool same(const JobResult &A, const JobResult &B) const {
    return Real  ? A.*Real == B.*Real
           : U32 ? A.*U32 == B.*U32
           : U64 ? A.*U64 == B.*U64
                 : true; // derived: equal whenever its inputs are
  }
  void write(JsonWriter &W, const JobResult &R) const {
    if (U32)
      W.field(Key, R.*U32);
    else if (U64)
      W.field(Key, R.*U64);
    else
      W.field(Key, number(R));
  }
  void csv(std::string &Out, const JobResult &R) const {
    if (U32)
      appendDecimal(Out, R.*U32);
    else if (U64)
      appendDecimal(Out, R.*U64);
    else
      appendJsonNumber(Out, number(R));
  }
  /// Reads the stored member back from \p Obj; derived numbers are
  /// recomputed, not read.
  bool parse(const JsonValue &Obj, JobResult &R, std::string *Error) const {
    return Real  ? needNumber(Obj, Key, R.*Real, Error)
           : U32 ? needUnsigned(Obj, Key, R.*U32, Error)
           : U64 ? needU64(Obj, Key, R.*U64, Error)
                 : true;
  }
};

/// Every number of the record, in CSV column order. Filtered by section,
/// this is also each JSON object's key order.
const Field Fields[] = {
    {Base, "energy_mj", "base_energy_mj", &JobResult::BaseEnergyMilliJoules},
    {Opt, "energy_mj", "opt_energy_mj", &JobResult::OptEnergyMilliJoules},
    {Base, "seconds", "base_seconds", &JobResult::BaseSeconds},
    {Opt, "seconds", "opt_seconds", &JobResult::OptSeconds},
    {Base, "power_mw", "base_power_mw", &JobResult::BaseAvgMilliWatts},
    {Opt, "power_mw", "opt_power_mw", &JobResult::OptAvgMilliWatts},
    {Base, "cycles", "base_cycles", &JobResult::BaseCycles},
    {Opt, "cycles", "opt_cycles", &JobResult::OptCycles},
    {Delta, "energy_pct", "energy_pct", &JobResult::energyPct},
    {Delta, "time_pct", "time_pct", &JobResult::timePct},
    {Delta, "power_pct", "power_pct", &JobResult::powerPct},
    {Model, "base_energy_mj", "model_base_energy_mj",
     &JobResult::PredictedBaseEnergyMilliJoules},
    {Model, "opt_energy_mj", "model_opt_energy_mj",
     &JobResult::PredictedOptEnergyMilliJoules},
    {Model, "base_cycles", "model_base_cycles",
     &JobResult::PredictedBaseCycles},
    {Model, "opt_cycles", "model_opt_cycles", &JobResult::PredictedOptCycles},
    {Model, "ram_bytes", "ram_bytes", &JobResult::RamBytes},
    {Model, "moved_blocks", "moved_blocks", &JobResult::MovedBlocks},
};

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
  for (int S = Base; S != NumSections; ++S) {
    if (S != Model && R.Spec.Kind != JobKind::Measure)
      continue;
    W.key(SectionNames[S]).beginObject();
    for (const Field &F : Fields)
      if (F.Sec == S)
        F.write(W, R);
    W.endObject();
  }
  // How a result was obtained (cache hits, solver effort) is deliberately
  // absent: reports must be byte-identical whatever path produced them.
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
      !needString(V, "kind", Kind, Error) ||
      !needEnum(Level, optLevelFromName, Out.Spec.Level, "level", Error) ||
      !needEnum(Freq, freqModeFromName, Out.Spec.Freq, "freq mode", Error) ||
      !needEnum(Kind, jobKindFromName, Out.Spec.Kind, "job kind", Error))
    return false;

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
    if (!needEnum(Status->string(), solveStatusFromName, Out.SolveOutcome,
                  "solve_status", Error))
      return false;
  }

  // Stored numbers only: the derived delta section is never read, and
  // unknown keys (a diagnostic "solver" block, say) are ignored.
  for (int S = Base; S != NumSections; ++S) {
    const JsonValue *Obj = nullptr;
    for (const Field &F : Fields) {
      if (F.Sec != S || F.Derived || !F.carriedBy(Out))
        continue;
      if (!Obj && !(Obj = need(V, SectionNames[S], Error)))
        return false;
      if (!F.parse(*Obj, Out, Error))
        return false;
    }
  }
  return true;
}

std::vector<MetricChange> ramloc::changedMetrics(const JobResult &A,
                                                 const JobResult &B) {
  std::vector<MetricChange> Changes;
  for (const Field &F : Fields)
    if (!F.Derived && (F.carriedBy(A) || F.carriedBy(B)) && !F.same(A, B))
      Changes.push_back({std::string(SectionNames[F.Sec]) + "." + F.Key,
                         F.number(A), F.number(B)});
  return Changes;
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
  std::string Doc = std::move(W).str();
  Doc += '\n';
  return Doc;
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
                    "freq,kind,ok,error";
  for (const Field &F : Fields) {
    Out += ',';
    Out += F.Column;
  }
  Out += '\n';
  auto csvField = [&Out](const std::string &S) {
    if (S.find_first_of(",\"\n") == std::string::npos) {
      Out += S;
      return;
    }
    Out += '"';
    for (char C : S) {
      if (C == '"')
        Out += '"';
      Out += C;
    }
    Out += '"';
  };
  for (const JobResult &J : R.Results) {
    const JobSpec &S = J.Spec;
    csvField(S.Benchmark);
    Out += ',';
    Out += optLevelName(S.Level);
    Out += ',';
    appendDecimal(Out, S.Repeat);
    Out += ',';
    csvField(S.Device);
    Out += ',';
    appendDecimal(Out, S.RspareBytes);
    Out += ',';
    appendJsonNumber(Out, S.Xlimit);
    Out += ',';
    Out += freqModeName(S.Freq);
    Out += ',';
    Out += jobKindName(S.Kind);
    Out += J.ok() ? ",1," : ",0,";
    csvField(J.Error);
    for (const Field &F : Fields) {
      Out += ',';
      if (F.carriedBy(J))
        F.csv(Out, J);
    }
    Out += '\n';
  }
  return Out;
}

std::string ramloc::campaignToTable(const CampaignResult &R) {
  Table T({"benchmark", "level", "device", "Rspare", "Xlimit", "freq",
           "energy", "time", "power", "RAM", "status"});
  for (const JobResult &J : R.Results) {
    const JobSpec &S = J.Spec;
    // A degraded row names its label: "ok" would read as a proven optimum.
    std::string Status = !J.ok() ? "FAIL"
                         : J.SolveOutcome != SolveStatus::Optimal
                             ? solveStatusName(J.SolveOutcome)
                         : J.CacheHit ? "cached"
                                      : "ok";
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
