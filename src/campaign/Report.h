//===- campaign/Report.h - campaign report serialization --------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Machine-readable (JSON, CSV) and human-readable (ASCII table) views of
/// a CampaignResult, plus the inverse direction: parsing a JSON report
/// back into JobResults so shard reports can be merged and cached results
/// reloaded. Serialized reports carry only deterministic fields —
/// identical campaigns produce byte-identical documents regardless of
/// thread count, cache state, or process count (sharded runs merge to the
/// unsharded bytes) — which CampaignTest asserts and downstream tooling
/// may rely on (e.g. diffing reports across commits).
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_CAMPAIGN_REPORT_H
#define RAMLOC_CAMPAIGN_REPORT_H

#include "campaign/Campaign.h"

#include <string>
#include <vector>

namespace ramloc {

class JsonValue;
class JsonWriter;

/// The JSON report (schema "ramloc-campaign-v2"): a summary object plus
/// one entry per job with spec, base/opt measurements, deltas and
/// model-side numbers. Cache provenance (cache_hit, unique_runs) is
/// deliberately absent: it depends on which earlier runs populated a
/// cache, and reports must be byte-identical however a result was
/// obtained.
std::string campaignToJson(const CampaignResult &R, bool Pretty = true);

/// One CSV row per job, with a header line. Numbers use the same
/// round-trippable formatting as the JSON report.
std::string campaignToCsv(const CampaignResult &R);

/// A rendered ASCII table of per-job results (the CLI's default view).
std::string campaignToTable(const CampaignResult &R);

/// Serializes one JobResult as the report's per-job object (spec fields,
/// then base/opt/delta/model sections). Shared by campaignToJson and the
/// on-disk result cache, so both speak the same dialect.
void writeJobResult(JsonWriter &W, const JobResult &R);

/// Parses one per-job object back into \p Out. The derived fields
/// (config_hash, delta percentages) and unknown keys are ignored;
/// CacheHit is left false. Returns false and fills \p Error on a
/// malformed object.
bool parseJobResult(const JsonValue &V, JobResult &Out,
                    std::string *Error = nullptr);

/// One stored number that differs between two records of a job.
struct MetricChange {
  std::string Name; ///< "<section>.<key>" as in the JSON report
  double Old = 0.0, New = 0.0;
};

/// Every stored number either record carries (measured and model
/// sections; the delta percentages are derived, so they are not
/// compared) that differs between \p A and \p B, in CSV column order.
std::vector<MetricChange> changedMetrics(const JobResult &A,
                                         const JobResult &B);

/// Parses a full JSON report produced by campaignToJson. The summary is
/// recomputed from the parsed jobs (not trusted from the document), so a
/// parsed-and-reserialized report is byte-identical to the original.
bool parseCampaignReport(const std::string &Doc, CampaignResult &Out,
                         std::string *Error = nullptr);

/// Merges shard reports by concatenating their job lists in argument
/// order and recomputing the summary. When the inputs are the shards
/// 1..N of one grid (in order), the merged report is byte-identical to
/// the report of the unsharded run.
bool mergeCampaignReports(const std::vector<std::string> &Docs,
                          CampaignResult &Out,
                          std::string *Error = nullptr);

/// Writes \p Text to \p Path. Returns false and fills \p Error on failure.
bool writeTextFile(const std::string &Path, const std::string &Text,
                   std::string *Error = nullptr);

/// Reads all of \p Path into \p Out. Returns false and fills \p Error on
/// failure.
bool readTextFile(const std::string &Path, std::string &Out,
                  std::string *Error = nullptr);

} // namespace ramloc

#endif // RAMLOC_CAMPAIGN_REPORT_H
