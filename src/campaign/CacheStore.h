//===- campaign/CacheStore.h - persistent result cache ----------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Durable storage for campaign results and execution profiles, so
/// repeated `ramloc-batch` runs (and CI re-runs) are incremental: a grid
/// point computed once is never recomputed as long as the code that
/// produced it is unchanged, and a benchmark simulated once is recosted —
/// not re-executed — even across processes and device-table changes.
///
/// Format: four JSON-lines files inside the cache directory, each a
/// FramedLog (campaign/FramedLog.h: CRC32C-framed lines, fingerprinted
/// header, quarantine, lock-free appends, locked atomic rewrites, orphan
/// sweep, fsck walk).
///  - `results.jsonl`: one JobResult per line in the report dialect
///    (campaign/Report.h), keyed by its spec's cacheKey(), first wins.
///    The fingerprint covers the device registry's power tables and
///    timing models: results from another power model are never served.
///  - `profiles.jsonl`: one ExecutionProfile per line keyed by execution
///    key (image fingerprint + arguments), newest wins. Profiles are
///    device-independent, so the fingerprint covers only the simulator
///    semantics: a power recalibration retires every cached *result* yet
///    keeps every *profile*, turning the re-sweep into recosts.
///  - `incumbents.jsonl`: the best-known placement per solve group
///    (block bitstring + model energy), best wins — the seed for a later
///    process's first cold MIP solve. Staleness is harmless: a seed is
///    re-validated at zero tolerance before it may prune anything, and
///    can only steer which of several bit-equal-energy optima wins (the
///    unique-optimum caveat every exact-solver reuse path shares).
///  - `progress.jsonl`: the resume journal (see beginJournal()).
///
/// save() appends only entries not yet on disk, so concurrent writers
/// sharing a directory interleave whole lines instead of losing each
/// other's work, and a killed writer truncates at most its final line.
/// compact() forces the sorted, deduplicated rewrite (`ramloc-batch
/// --merge --cache-dir=...`); fsck() reports and repairs damage
/// (`ramloc-batch --fsck [--repair]`).
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_CAMPAIGN_CACHESTORE_H
#define RAMLOC_CAMPAIGN_CACHESTORE_H

#include "campaign/Campaign.h"
#include "campaign/FramedLog.h"
#include "sim/ProfileCache.h"

#include <algorithm>
#include <string>
#include <vector>

namespace ramloc {

class CacheStore {
public:
  CacheStore();

  /// The results fingerprint: a stable hash over the store and report
  /// schemas and the full device registry (names, power tables, timing
  /// models). Any change to those retires every existing cache.
  static std::string fingerprint();

  /// The profile fingerprint: the profile schema and the hand-bumped
  /// simulator-semantics tag — deliberately not the device registry,
  /// since execution profiles are device-independent.
  static std::string profileFingerprint();

  /// The incumbent fingerprint: its own schema plus the device registry
  /// (the registry shapes the placement models).
  static std::string incumbentFingerprint();

  /// Binds the store to the four files under \p Dir (created when
  /// missing), sweeps dead writers' temporaries, and loads the results,
  /// profile and incumbent files. Returns false only when the directory
  /// cannot be created; invalid content merely yields an empty cache.
  bool open(const std::string &Dir, std::string *Error = nullptr);

  /// Persists every *successful* entry not yet on disk. Healthy files
  /// grow by appended lines, past any torn tail another writer left; only
  /// a file whose header is missing, damaged or stale is rewritten.
  /// Failed and degraded results stay in memory: a failure may be a bug
  /// the next build fixes, and the fingerprint cannot see code changes.
  /// Invalid profiles are never persisted.
  bool save(std::string *Error = nullptr);

  /// Sorted, deduplicated atomic rewrite of the results, profile and
  /// incumbent files — the repair path for stores grown by many
  /// appenders.
  bool compact(std::string *Error = nullptr);

  using FsckFile = ramloc::FsckFile;

  /// What fsck() found across the whole cache directory.
  struct FsckReport {
    std::vector<FsckFile> Files;
    /// Temporaries of dead writers that open() swept.
    std::vector<std::string> OrphanedTemps;
    bool damaged() const {
      return !OrphanedTemps.empty() ||
             std::any_of(Files.begin(), Files.end(),
                         [](const FsckFile &F) { return F.damaged(); });
    }
  };

  /// Walks all four store files (after open()) into \p Report,
  /// quarantining damaged lines. With \p Repair, every damaged file is
  /// rewritten under its lock — valid records only, deduplicated — and a
  /// journal whose header cannot be trusted is removed. Returns false
  /// only when a repair rewrite fails.
  bool fsck(bool Repair, FsckReport &Report, std::string *Error = nullptr);

  //===--- Campaign progress journal (crash-safe resume) -------------------===//
  //
  // progress.jsonl records every *finished* job of an in-flight campaign
  // as one report-dialect line. A killed campaign loses at most its torn
  // final line; `--resume` replays the journal through the result cache
  // and re-runs only what is missing, byte-identical to an uninterrupted
  // run. Unlike results.jsonl it keeps failed and degraded entries — its
  // contract is "reproduce the interrupted run's report" — and it is
  // removed once the final report is out.

  /// Starts the journal (after open()). With \p Resume, entries under a
  /// matching header — fingerprint() plus \p ConfigToken, which must
  /// encode everything that can change a report's bytes
  /// (solverConfigToken(): limits, warm/cold and the solver's fixed
  /// constants; not --jobs) — load into journalEntries(); a missing or
  /// mismatched journal yields none. Otherwise a fresh header replaces
  /// any journal.
  bool beginJournal(const std::string &ConfigToken, bool Resume,
                    std::string *Error = nullptr);

  /// Appends one finished job (retried like every append). No-op before
  /// beginJournal().
  bool appendJournal(const JobResult &R, std::string *Error = nullptr);

  /// Removes the journal once the final report is durable.
  void clearJournal();

  /// Entries a resuming beginJournal() recovered, in journal order
  /// (first occurrence wins for duplicated keys).
  const std::vector<JobResult> &journalEntries() const {
    return JournalResults;
  }
  /// Corrupt/torn journal lines skipped during resume.
  size_t journalSkipped() const { return JournalStats.skipped(); }
  const std::string &journalPath() const { return JournalPath; }

  /// The in-memory caches backing the store; point CampaignOptions'
  /// Cache, Profiles and Incumbents here.
  ResultCache &cache() { return Cache; }
  const ResultCache &cache() const { return Cache; }
  ProfileCache &profiles() { return Profiles; }
  IncumbentStore &incumbents() { return Incumbents; }

  const std::string &path() const { return Results.path(); }
  const std::string &profilePath() const { return ProfileLog.path(); }
  const std::string &incumbentPath() const { return IncumbentLog.path(); }

  /// Diagnostics from the last open(): per file, the records served
  /// (incumbents: each record that set or improved its group's best)
  /// and the lines skipped as corrupt or unservable.
  size_t loadedEntries() const { return ResultStats.Kept; }
  size_t skippedLines() const { return ResultStats.skipped(); }
  size_t loadedProfiles() const { return ProfileStats.Kept; }
  size_t skippedProfileLines() const { return ProfileStats.skipped(); }
  size_t loadedIncumbents() const { return IncumbentStats.Kept; }
  size_t skippedIncumbentLines() const { return IncumbentStats.skipped(); }
  /// A results store existed under another header; nothing was served.
  bool invalidated() const { return ResultStats.invalidated(); }
  /// Frame/CRC failures across every scan since open(); each also bumps
  /// `cachestore.crc_mismatch` and lands in a `.quarantine` sibling.
  size_t crcMismatches() const { return CrcMismatches; }
  /// Orphaned `*.tmp.<pid>` temporaries (dead writer) swept by open().
  const std::vector<std::string> &sweptTempFiles() const {
    return SweptTemps;
  }

  /// Bounds the wait for a per-file rewrite lock (default 10 s). Tests
  /// dial it down to fail fast under the `cache.lock` fault site.
  void setLockWaitMs(unsigned Ms) { LockWaitMs = Ms; }

private:
  /// The one persist path behind save(), compact() and repairs: hands
  /// \p Log the in-memory snapshot of its record kind.
  bool persist(FramedLog &Log, bool Rewrite, std::string *Error);
  bool opened(std::string *Error) const;
  /// Adds a scan's frame failures to crcMismatches().
  ScanStats tally(ScanStats S);

  ResultCache Cache;
  ProfileCache Profiles;
  IncumbentStore Incumbents;
  FramedLog Results;
  FramedLog ProfileLog;
  FramedLog IncumbentLog;
  FramedLog Journal;
  std::string JournalPath; ///< Set while a journal is in flight.
  std::vector<JobResult> JournalResults;
  ScanStats ResultStats;
  ScanStats ProfileStats;
  ScanStats IncumbentStats;
  ScanStats JournalStats;
  size_t CrcMismatches = 0;
  std::vector<std::string> SweptTemps;
  unsigned LockWaitMs = 10000;
};

} // namespace ramloc

#endif // RAMLOC_CAMPAIGN_CACHESTORE_H
