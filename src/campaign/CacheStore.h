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
/// Format: three JSON-lines files inside the cache directory.
///  - `results.jsonl`: one JobResult per line in the report dialect
///    (campaign/Report.h), keyed implicitly by its spec's cacheKey().
///    Its header fingerprint covers the device registry's power tables
///    and timing models — results computed under a different power model
///    must never be served.
///  - `profiles.jsonl`: one ExecutionProfile per line keyed by execution
///    key (image fingerprint + arguments). Profiles are device-
///    independent, so their header fingerprint covers only the simulator
///    semantics version: a power recalibration retires every cached
///    *result* yet keeps every cached *profile*, turning the re-sweep
///    into recosts instead of re-simulations.
///  - `incumbents.jsonl`: the best-known placement per solve group
///    (block bitstring + model energy), the seed for a later process's
///    first cold MIP solve. Same fingerprint discipline as results (the
///    device registry shapes the model), but staleness here is harmless
///    by construction — a seed is re-validated at zero tolerance before
///    it may prune anything, and a surviving seed can only steer which
///    of several bit-equal-energy optima wins (the unique-optimum caveat
///    every exact-solver reuse path in this repo shares) — so the
///    fingerprint only avoids pointless seeding attempts, it is not a
///    correctness gate.
///
/// Writes are append-mode: save() appends only entries not yet on disk,
/// one complete record per line with no fsync, so concurrent writers
/// sharing a directory interleave whole lines instead of losing each
/// other's work to a rewrite race, and a killed writer truncates at most
/// its final line (skipped on load). A file that needs repair — absent,
/// corrupt, truncated mid-line, or carrying a stale fingerprint — is
/// instead rewritten atomically (temporary + rename). compact() forces
/// that sorted, deduplicated rewrite; report merging is its natural home
/// (`ramloc-batch --merge --cache-dir=...`).
///
/// Integrity (all four files, headers included):
///  - Every line is CRC32C-framed (support/Checksum.h): eight hex digits
///    plus a space prefix the JSON payload. A line whose checksum does
///    not match — a flipped bit, a torn tail, a fused pair of lines — is
///    never served: it is counted (`cachestore.crc_mismatch` metric and
///    crcMismatches()), preserved by appending it to `<file>.quarantine`
///    (deduplicated, so repeated loads do not grow the file), and
///    skipped. A file whose *header* line is damaged or stale yields an
///    empty-but-usable store. Pre-framing (v1) stores are retired by the
///    store-schema bump: their fingerprints can no longer match.
///  - Atomic rewrites and compactions take a per-file advisory flock
///    (`<file>.lock`, support/FileLock.h) with a bounded wait, so two
///    `--merge` or `--fsck --repair` processes sharing a directory
///    serialize their read-then-rename cycles. Append paths stay
///    lock-free whole-line appends.
///  - open() sweeps orphaned `<file>.tmp.<pid>` temporaries whose writer
///    is no longer alive (a rewrite killed between temp-write and
///    rename); fsck() reports them.
///  - fsck() walks every store file and reports per-file valid/corrupt/
///    stale/duplicate counts; with Repair it performs the locked
///    compaction rewrite (`ramloc-batch --fsck [--repair]`).
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_CAMPAIGN_CACHESTORE_H
#define RAMLOC_CAMPAIGN_CACHESTORE_H

#include "campaign/Campaign.h"
#include "sim/ProfileCache.h"

#include <map>
#include <set>
#include <string>

namespace ramloc {

class CacheStore {
public:
  /// The fingerprint a valid results store must carry: a stable hash over
  /// the store schema, the report schema, and the full device registry
  /// (names, power tables, timing models). Any change to those — a new
  /// power calibration, a device table edit, a serialization bump —
  /// yields a new fingerprint and retires every existing cache.
  static std::string fingerprint();

  /// The fingerprint of the profile store: a stable hash over the profile
  /// schema and the simulator-semantics tag (bumped by hand whenever the
  /// interpreter's architectural behaviour changes). Deliberately
  /// independent of the device registry — execution profiles are
  /// device-independent, which is their whole value.
  static std::string profileFingerprint();

  /// The fingerprint of the incumbent store: its own schema plus the
  /// device registry (the registry shapes the placement models the
  /// assignments were optimal for).
  static std::string incumbentFingerprint();

  /// Binds the store to <Dir>/results.jsonl and <Dir>/profiles.jsonl,
  /// creating \p Dir when missing, and loads whatever valid entries the
  /// files hold. Returns false only when the directory cannot be
  /// created; invalid content merely yields an empty cache (see
  /// invalidated() / skippedLines()).
  bool open(const std::string &Dir, std::string *Error = nullptr);

  /// Persists every *successful* entry not yet on disk. Healthy files
  /// grow by appended lines; a torn tail line (another writer killed
  /// mid-append) is terminated with a newline and appended past, never
  /// rewritten away — a rewrite would discard records other writers
  /// appended since we opened. Only a file whose *header* is missing,
  /// damaged, or stale-fingerprinted is rewritten atomically.
  /// Failed results stay in-memory only: a failure may be a bug the next
  /// build fixes, and the fingerprint cannot see code changes, so
  /// persisting it would serve a stale error forever. Invalid profiles
  /// are never persisted.
  bool save(std::string *Error = nullptr);

  /// Sorted, deduplicated atomic rewrite of both files — the repair and
  /// garbage-collection path for stores grown by many appenders.
  bool compact(std::string *Error = nullptr);

  /// What a profile-store GC pass did.
  struct ProfileGcStats {
    size_t Kept = 0;
    /// Corrupt lines, entries under a stale semantics fingerprint, and
    /// duplicate keys (the newest occurrence wins).
    size_t DroppedInvalid = 0;
    /// Valid entries evicted to honour the size cap.
    size_t Evicted = 0;
    uint64_t BytesBefore = 0;
    uint64_t BytesAfter = 0;
  };

  /// Garbage-collects profiles.jsonl in place (atomic rewrite): drops
  /// corrupt lines and entries whose semantics fingerprint no longer
  /// matches, folds duplicate keys to their newest occurrence, and — when
  /// \p MaxBytes is non-zero — evicts the least-recently-appended entries
  /// until the file fits. Append order is the recency signal: save()
  /// appends new profiles, so earlier lines are older (a GC rewrite
  /// preserves the surviving order, keeping later passes meaningful).
  /// Operates on the file, not the in-memory cache; run it as a
  /// maintenance pass (`ramloc-batch --gc-profiles`), not mid-campaign —
  /// a later save() from this process may re-append evicted entries it
  /// still holds in memory.
  bool gcProfiles(uint64_t MaxBytes, ProfileGcStats &Stats,
                  std::string *Error = nullptr);

  /// Sorted, deduplicated atomic rewrite of incumbents.jsonl alone:
  /// drops corrupt lines and stale-fingerprint entries, folds duplicate
  /// groups to their best assignment. The incumbent-side companion of
  /// gcProfiles (`ramloc-batch --gc-profiles` runs both).
  bool compactIncumbents(std::string *Error = nullptr);

  //===--- Store verification (--fsck) -------------------------------------===//

  /// One store file's health as seen by fsck().
  struct FsckFile {
    std::string Name; ///< "results", "profiles", "incumbents", "progress".
    std::string Path;
    bool Present = false; ///< The file exists (possibly empty).
    /// The first line framed, parsed, and matched the expected schema and
    /// fingerprint. Vacuously true for absent or empty files.
    bool HeaderOk = true;
    size_t Valid = 0;     ///< CRC-valid, parseable records.
    size_t Corrupt = 0;   ///< Framing/CRC/parse failures (header included).
    size_t Stale = 0;     ///< Lines stranded under an unusable header.
    size_t Duplicate = 0; ///< Repeated keys — benign appender races.
    /// Damage repair would fix; duplicates alone are healthy appends.
    bool damaged() const {
      return (Present && !HeaderOk) || Corrupt != 0 || Stale != 0;
    }
  };

  /// What fsck() found across the whole cache directory.
  struct FsckReport {
    std::vector<FsckFile> Files;
    /// Orphaned `*.tmp.<pid>` temporaries of dead writers that open()
    /// swept from the directory.
    std::vector<std::string> OrphanedTemps;
    bool damaged() const {
      if (!OrphanedTemps.empty())
        return true;
      for (const FsckFile &F : Files)
        if (F.damaged())
          return true;
      return false;
    }
  };

  /// Walks all four store files (requires a prior successful open()) and
  /// fills \p Report; damaged record lines are quarantined as they are
  /// found. With \p Repair, every damaged file is rewritten under its
  /// lock — valid records only, deduplicated — and a journal whose
  /// header cannot be trusted is removed (corrupt lines are quarantined;
  /// valid lines stranded under a stale header fall with it). Returns
  /// false only when a repair rewrite itself fails.
  bool fsck(bool Repair, FsckReport &Report, std::string *Error = nullptr);

  //===--- Campaign progress journal (crash-safe resume) -------------------===//
  //
  // A fourth file, <dir>/progress.jsonl, records every *finished* job of
  // an in-flight campaign as one report-dialect line, appended as jobs
  // complete. A killed campaign loses at most its torn final line; a new
  // run with `--resume` replays the journal through the result cache,
  // re-runs only what is missing, and produces a report byte-identical
  // to the uninterrupted run (the report dialect round-trips exactly).
  // Unlike results.jsonl, the journal intentionally keeps failed and
  // degraded entries — its contract is "reproduce the interrupted run's
  // report", not "store trustworthy optima" — which is why it is a
  // separate file that is removed once the final report is safely out.

  /// Binds the journal to <dir>/progress.jsonl (requires a prior
  /// successful open()). With \p Resume, valid entries under a matching
  /// header — fingerprint() plus \p ConfigToken, which must encode
  /// anything that can change a report's bytes (solverConfigToken(): the
  /// limits, and also the pricing rule, node order and warm/cold switch,
  /// since those are byte-neutral only when every solve proves
  /// optimality — --pricing=dantzig labels 2 of the 1080 canonical
  /// configs feasible-limit that the default proves optimal; NOT --jobs,
  /// resume is byte-identical across that) — are loaded into
  /// journalEntries(); a missing, stale, or mismatched journal simply
  /// yields none. Without \p Resume any previous journal is discarded and
  /// a fresh header written.
  bool beginJournal(const std::string &ConfigToken, bool Resume,
                    std::string *Error = nullptr);

  /// Appends one finished job to the journal (one line, retried with
  /// backoff like every other append). No-op before beginJournal().
  bool appendJournal(const JobResult &R, std::string *Error = nullptr);

  /// Removes the journal file — call once the final report is durable;
  /// an orphaned journal is harmless but would be replayed by a later
  /// --resume of the same configuration.
  void clearJournal();

  /// Entries a resuming beginJournal() recovered, in journal order
  /// (first occurrence wins for duplicated keys).
  const std::vector<JobResult> &journalEntries() const {
    return JournalResults;
  }
  /// Corrupt/torn journal lines skipped during resume (diagnostics).
  size_t journalSkipped() const { return SkippedJournal; }
  const std::string &journalPath() const { return JournalPath; }

  /// The in-memory result cache backing this store. Point
  /// CampaignOptions::Cache here; runCampaign both serves lookups from it
  /// and inserts new results into it.
  ResultCache &cache() { return Cache; }
  const ResultCache &cache() const { return Cache; }

  /// The execution-profile cache backing this store. Point
  /// CampaignOptions::Profiles here so simulations recorded by earlier
  /// processes are recosted instead of re-run.
  ProfileCache &profiles() { return Profiles; }

  /// The incumbent store backing this store. Point
  /// CampaignOptions::Incumbents here so a solve group's first cold
  /// solve opens with the best-known placement from prior invocations.
  IncumbentStore &incumbents() { return Incumbents; }

  const std::string &path() const { return Path; }
  const std::string &profilePath() const { return ProfPath; }
  const std::string &incumbentPath() const { return IncPath; }

  /// Diagnostics from the last open().
  size_t loadedEntries() const { return Loaded; }
  size_t skippedLines() const { return Skipped; }
  size_t loadedProfiles() const { return LoadedProfs; }
  size_t skippedProfileLines() const { return SkippedProfs; }
  size_t loadedIncumbents() const { return LoadedIncs; }
  size_t skippedIncumbentLines() const { return SkippedIncs; }
  /// True when a results store existed but carried a different
  /// fingerprint (its entries were discarded wholesale).
  bool invalidated() const { return Invalidated; }
  /// Framing/CRC failures seen across every load since open() — each one
  /// also bumps the `cachestore.crc_mismatch` metric and lands in the
  /// owning file's `.quarantine` sibling.
  size_t crcMismatches() const { return CrcMismatches; }
  /// Orphaned `*.tmp.<pid>` temporaries (dead writer) swept by open().
  const std::vector<std::string> &sweptTempFiles() const {
    return SweptTemps;
  }

  /// Bounds the wait for a per-file rewrite lock (default 10 s). Tests
  /// dial it down to fail fast under the `cache.lock` fault site.
  void setLockWaitMs(unsigned Ms) { LockWaitMs = Ms; }

private:
  bool rewriteResults(std::string *Error);
  bool appendResults(bool TerminateTornTail, std::string *Error);
  bool rewriteProfiles(std::string *Error);
  bool appendProfiles(bool TerminateTornTail, std::string *Error);
  bool rewriteIncumbents(std::string *Error);
  bool appendIncumbents(bool TerminateTornTail, std::string *Error);

  ResultCache Cache;
  ProfileCache Profiles;
  IncumbentStore Incumbents;
  std::string Path;
  std::string ProfPath;
  std::string IncPath;
  /// Cache keys already durable in each file (loaded or saved by us).
  /// save() appends only entries outside these sets; whether appending is
  /// safe is probed from the file itself at save() time (valid matching
  /// header, newline-terminated tail) so a concurrent writer's appends
  /// are extended, never clobbered.
  std::set<std::string> PersistedKeys;
  std::set<std::string> PersistedProfKeys;
  /// Incumbents durable per group *at an energy*: an improved assignment
  /// re-appends (best-wins on load), an unchanged one does not.
  std::map<std::string, double> PersistedIncEnergy;
  std::string JournalPath;
  std::vector<JobResult> JournalResults;
  size_t SkippedJournal = 0;
  size_t Loaded = 0;
  size_t Skipped = 0;
  size_t LoadedProfs = 0;
  size_t SkippedProfs = 0;
  size_t LoadedIncs = 0;
  size_t SkippedIncs = 0;
  size_t CrcMismatches = 0;
  std::vector<std::string> SweptTemps;
  unsigned LockWaitMs = 10000;
  bool Invalidated = false;
};

} // namespace ramloc

#endif // RAMLOC_CAMPAIGN_CACHESTORE_H
