//===- tests/ReportTest.cpp - the job record's serialized forms ------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "campaign/Report.h"
#include "support/Json.h"

#include <gtest/gtest.h>

using namespace ramloc;

namespace {

JobSpec fixedSpec(JobKind Kind) {
  JobSpec S;
  S.Benchmark = "crc32";
  S.Level = OptLevel::O1;
  S.Repeat = 2;
  S.Device = "stm32f100";
  S.RspareBytes = 256;
  S.Xlimit = 1.2;
  S.Freq = FreqMode::Static;
  S.Kind = Kind;
  return S;
}

void fillModel(JobResult &R) {
  R.PredictedBaseEnergyMilliJoules = 0.1;
  R.PredictedOptEnergyMilliJoules = 0.0875;
  R.PredictedBaseCycles = 58000.5;
  R.PredictedOptCycles = 61234.25;
  R.RamBytes = 200;
  R.MovedBlocks = 3;
}

JobResult measureOk() {
  JobResult R;
  R.Spec = fixedSpec(JobKind::Measure);
  R.BaseEnergyMilliJoules = 0.125;
  R.OptEnergyMilliJoules = 0.1;
  R.BaseSeconds = 0.0025;
  R.OptSeconds = 0.003;
  R.BaseAvgMilliWatts = 50;
  R.OptAvgMilliWatts = 33.3;
  R.BaseCycles = 60000;
  R.OptCycles = 12345678901234ull;
  fillModel(R);
  return R;
}

JobResult modelOnlyOk() {
  JobResult R;
  R.Spec = fixedSpec(JobKind::ModelOnly);
  R.Spec.Freq = FreqMode::Profiled;
  fillModel(R);
  return R;
}

JobResult feasibleLimit() {
  JobResult R = modelOnlyOk();
  R.Spec.Freq = FreqMode::Static;
  R.Spec.Device = "stm32l-lp";
  R.SolveOutcome = SolveStatus::FeasibleLimit;
  return R;
}

JobResult failed() {
  JobResult R;
  R.Spec = fixedSpec(JobKind::Measure);
  R.Spec.Benchmark = "no,\"such\"";
  R.Error = "unknown benchmark 'no,\"such\"'";
  return R;
}

std::string compactJson(const JobResult &R) {
  JsonWriter W(/*Pretty=*/false);
  writeJobResult(W, R);
  return W.str();
}

/// The one data row campaignToCsv writes for \p R.
std::string csvRow(const JobResult &R) {
  CampaignResult CR;
  CR.Results = {R};
  std::string Csv = campaignToCsv(CR);
  return Csv.substr(Csv.find('\n') + 1);
}

/// Parses \p Doc as one job object; returns the parse error ("" = ok).
std::string parseError(const std::string &Doc, JobResult *Out = nullptr) {
  JsonValue V;
  std::string Error;
  if (!JsonValue::parse(Doc, V, &Error))
    return "bad JSON: " + Error;
  JobResult R;
  if (!parseJobResult(V, R, &Error))
    return Error;
  if (Out)
    *Out = R;
  return "";
}

/// \p Doc with its first occurrence of \p From replaced by \p To.
std::string replaced(std::string Doc, const std::string &From,
                     const std::string &To) {
  size_t At = Doc.find(From);
  EXPECT_NE(At, std::string::npos) << From;
  if (At != std::string::npos)
    Doc.replace(At, From.size(), To);
  return Doc;
}

} // namespace

// The exact bytes of the four shapes a job object takes. Reports, the
// results store and the resume journal all write this dialect, so a
// change here is a format change.
TEST(Report, GoldenJobObjects) {
  EXPECT_EQ(compactJson(measureOk()),
            R"({"benchmark":"crc32","level":"O1","repeat":2,)"
            R"("device":"stm32f100","rspare_bytes":256,"xlimit":1.2,)"
            R"("freq":"static","kind":"measure",)"
            R"("config_hash":"8c197446666462aa","ok":true,)"
            R"("base":{"energy_mj":0.125,"seconds":0.0025,"power_mw":50,)"
            R"("cycles":60000},)"
            R"("opt":{"energy_mj":0.1,"seconds":0.003,"power_mw":33.3,)"
            R"("cycles":12345678901234},)"
            R"("delta":{"energy_pct":-19.999999999999996,"time_pct":20,)"
            R"("power_pct":-33.400000000000006},)"
            R"("model":{"base_energy_mj":0.1,"opt_energy_mj":0.0875,)"
            R"("base_cycles":58000.5,"opt_cycles":61234.25,)"
            R"("ram_bytes":200,"moved_blocks":3}})");
  EXPECT_EQ(compactJson(modelOnlyOk()),
            R"({"benchmark":"crc32","level":"O1","repeat":2,)"
            R"("device":"stm32f100","rspare_bytes":256,"xlimit":1.2,)"
            R"("freq":"profiled","kind":"model-only",)"
            R"("config_hash":"a6561f3b14e02c87","ok":true,)"
            R"("model":{"base_energy_mj":0.1,"opt_energy_mj":0.0875,)"
            R"("base_cycles":58000.5,"opt_cycles":61234.25,)"
            R"("ram_bytes":200,"moved_blocks":3}})");
  EXPECT_EQ(compactJson(feasibleLimit()),
            R"({"benchmark":"crc32","level":"O1","repeat":2,)"
            R"("device":"stm32l-lp","rspare_bytes":256,"xlimit":1.2,)"
            R"("freq":"static","kind":"model-only",)"
            R"("config_hash":"c8f80ca58be5d5e6","ok":true,)"
            R"("solve_status":"feasible-limit",)"
            R"("model":{"base_energy_mj":0.1,"opt_energy_mj":0.0875,)"
            R"("base_cycles":58000.5,"opt_cycles":61234.25,)"
            R"("ram_bytes":200,"moved_blocks":3}})");
  EXPECT_EQ(compactJson(failed()),
            R"({"benchmark":"no,\"such\"","level":"O1","repeat":2,)"
            R"("device":"stm32f100","rspare_bytes":256,"xlimit":1.2,)"
            R"("freq":"static","kind":"measure",)"
            R"("config_hash":"33afbdaf1883d883","ok":false,)"
            R"("error":"unknown benchmark 'no,\"such\"'"})");
}

TEST(Report, GoldenCsvRows) {
  CampaignResult Empty;
  EXPECT_EQ(campaignToCsv(Empty),
            "benchmark,level,repeat,device,rspare_bytes,xlimit,freq,kind,ok,"
            "error,base_energy_mj,opt_energy_mj,base_seconds,opt_seconds,"
            "base_power_mw,opt_power_mw,base_cycles,opt_cycles,energy_pct,"
            "time_pct,power_pct,model_base_energy_mj,model_opt_energy_mj,"
            "model_base_cycles,model_opt_cycles,ram_bytes,moved_blocks\n");
  EXPECT_EQ(csvRow(measureOk()),
            "crc32,O1,2,stm32f100,256,1.2,static,measure,1,,"
            "0.125,0.1,0.0025,0.003,50,33.3,60000,12345678901234,"
            "-19.999999999999996,20,-33.400000000000006,"
            "0.1,0.0875,58000.5,61234.25,200,3\n");
  EXPECT_EQ(csvRow(modelOnlyOk()),
            "crc32,O1,2,stm32f100,256,1.2,profiled,model-only,1,,"
            ",,,,,,,,,,,0.1,0.0875,58000.5,61234.25,200,3\n");
  // The CSV carries no solve_status column: a degraded row reads like
  // an optimal one here (the JSON report labels it).
  EXPECT_EQ(csvRow(feasibleLimit()),
            "crc32,O1,2,stm32l-lp,256,1.2,static,model-only,1,,"
            ",,,,,,,,,,,0.1,0.0875,58000.5,61234.25,200,3\n");
  EXPECT_EQ(csvRow(failed()),
            R"("no,""such""",O1,2,stm32f100,256,1.2,static,measure,0,)"
            R"("unknown benchmark 'no,""such""'",,,,,,,,,,,,,,,,,)"
            "\n");
}

TEST(Report, MalformedJobObjectsKeepTheirMessages) {
  const std::string Good = compactJson(measureOk());
  ASSERT_EQ(parseError(Good), "");
  const std::pair<std::string, std::string> Cases[] = {
      {"[1]", "job entry is not an object"},
      {replaced(Good, "\"benchmark\":\"crc32\",", ""),
       "missing field 'benchmark'"},
      {replaced(Good, "\"repeat\":2", "\"repeat\":\"2\""),
       "field 'repeat' is not a number"},
      {replaced(Good, "\"repeat\":2", "\"repeat\":-1"),
       "field 'repeat' out of range"},
      {replaced(Good, "\"rspare_bytes\":256", "\"rspare_bytes\":4294967296"),
       "field 'rspare_bytes' out of range"},
      {replaced(Good, "\"xlimit\":1.2", "\"xlimit\":true"),
       "field 'xlimit' is not a number"},
      {replaced(Good, "\"device\":\"stm32f100\"", "\"device\":7"),
       "field 'device' is not a string"},
      {replaced(Good, "\"O1\"", "\"O9\""), "unknown level 'O9'"},
      {replaced(Good, "\"static\"", "\"dynamic\""),
       "unknown freq mode 'dynamic'"},
      {replaced(Good, "\"measure\"", "\"sometimes\""),
       "unknown job kind 'sometimes'"},
      {replaced(Good, "\"ok\":true", "\"ok\":1"),
       "field 'ok' is not a boolean"},
      {replaced(Good, "\"ok\":true", "\"ok\":true,\"solve_status\":1"),
       "field 'solve_status' is not a string"},
      {replaced(Good, "\"ok\":true", "\"ok\":true,\"solve_status\":\"meh\""),
       "unknown solve_status 'meh'"},
      {replaced(Good, "\"base\":", "\"bass\":"), "missing field 'base'"},
      {replaced(Good, "\"opt\":", "\"opp\":"), "missing field 'opt'"},
      {replaced(Good, "\"model\":", "\"mode\":"), "missing field 'model'"},
      {replaced(Good, "\"energy_mj\":0.125", "\"energy_mj\":\"0.125\""),
       "field 'energy_mj' is not a number"},
      {replaced(Good, "\"power_mw\":50,", ""), "missing field 'power_mw'"},
      {replaced(Good, "\"cycles\":60000", "\"cycles\":-1"),
       "field 'cycles' out of range"},
      {replaced(Good, "\"cycles\":12345678901234",
                "\"cycles\":18446744073709551616"),
       "field 'cycles' out of range"},
      {replaced(Good, "\"ram_bytes\":200", "\"ram_bytes\":4294967296"),
       "field 'ram_bytes' out of range"},
      {replaced(Good, "\"moved_blocks\":3", "\"moved_blocks\":null"),
       "field 'moved_blocks' is not a number"},
      {replaced(Good, "\"base_cycles\":58000.5,", ""),
       "missing field 'base_cycles'"},
      {replaced(compactJson(failed()), "\"error\":", "\"err\":"),
       "missing field 'error'"},
  };
  for (const auto &[Doc, Want] : Cases)
    EXPECT_EQ(parseError(Doc), Want) << Doc;

  // The largest values each integer width holds still parse.
  JobResult Back;
  ASSERT_EQ(parseError(replaced(Good, "\"ram_bytes\":200",
                                "\"ram_bytes\":4294967295"),
                       &Back),
            "");
  EXPECT_EQ(Back.RamBytes, 4294967295u);
}

// Each stored number, perturbed alone, must survive the write -> parse
// round trip exactly and be the one change changedMetrics names — the
// measured power included, which a hand-kept metric list once missed.
TEST(Report, EveryStoredNumberRoundTripsAndDiffs) {
  struct Perturbation {
    const char *Name;
    void (*Apply)(JobResult &);
    bool Measured; ///< stored only for Measure jobs
  };
  const Perturbation Cases[] = {
      {"base.energy_mj", [](JobResult &R) { R.BaseEnergyMilliJoules = 0.3; },
       true},
      {"opt.energy_mj",
       [](JobResult &R) { R.OptEnergyMilliJoules = 0.1 + 0.2; }, true},
      {"base.seconds", [](JobResult &R) { R.BaseSeconds = 1e-9; }, true},
      {"opt.seconds", [](JobResult &R) { R.OptSeconds = 2.5e3; }, true},
      {"base.power_mw", [](JobResult &R) { R.BaseAvgMilliWatts = 49.5; },
       true},
      {"opt.power_mw", [](JobResult &R) { R.OptAvgMilliWatts = 0; }, true},
      {"base.cycles", [](JobResult &R) { R.BaseCycles = 1ull << 53; }, true},
      {"opt.cycles", [](JobResult &R) { R.OptCycles = 0; }, true},
      {"model.base_energy_mj",
       [](JobResult &R) { R.PredictedBaseEnergyMilliJoules = 7.25; }, false},
      {"model.opt_energy_mj",
       [](JobResult &R) { R.PredictedOptEnergyMilliJoules = 1.0 / 3; },
       false},
      {"model.base_cycles", [](JobResult &R) { R.PredictedBaseCycles = 1e15; },
       false},
      {"model.opt_cycles", [](JobResult &R) { R.PredictedOptCycles = 0.5; },
       false},
      {"model.ram_bytes", [](JobResult &R) { R.RamBytes = 4294967295u; },
       false},
      {"model.moved_blocks", [](JobResult &R) { R.MovedBlocks = 0; }, false},
  };
  for (JobResult (*Make)() : {measureOk, modelOnlyOk}) {
    const JobResult Original = Make();
    bool MeasureJob = Original.Spec.Kind == JobKind::Measure;
    for (const Perturbation &P : Cases) {
      JobResult Changed = Original;
      P.Apply(Changed);
      JobResult Back;
      ASSERT_EQ(parseError(compactJson(Changed), &Back), "") << P.Name;
      EXPECT_EQ(compactJson(Back), compactJson(Changed)) << P.Name;
      EXPECT_TRUE(changedMetrics(Changed, Back).empty()) << P.Name;

      std::vector<MetricChange> Diff = changedMetrics(Original, Changed);
      if (P.Measured && !MeasureJob) {
        // A model-only record does not carry measurements.
        EXPECT_TRUE(Diff.empty()) << P.Name;
        continue;
      }
      ASSERT_EQ(Diff.size(), 1u) << P.Name;
      EXPECT_EQ(Diff[0].Name, P.Name);
      EXPECT_NE(Diff[0].Old, Diff[0].New) << P.Name;
    }
  }
  // Failed records carry no numbers, so none can differ.
  JobResult Fail = failed(), Other = failed();
  Other.RamBytes = 9;
  EXPECT_TRUE(changedMetrics(Fail, Other).empty());
}

TEST(Report, TableNamesDegradedLabels) {
  CampaignResult CR;
  CR.Results = {modelOnlyOk(), feasibleLimit(), failed()};
  CR.Results[0].CacheHit = true;
  std::string Table = campaignToTable(CR);
  EXPECT_NE(Table.find("cached"), std::string::npos);
  EXPECT_NE(Table.find("feasible-limit"), std::string::npos);
  EXPECT_NE(Table.find("FAIL"), std::string::npos);
  EXPECT_EQ(Table.find(" ok "), std::string::npos);
}
