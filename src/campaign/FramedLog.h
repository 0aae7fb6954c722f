//===- campaign/FramedLog.h - one CRC-framed JSON-lines store file -*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The storage contract every cache-store file follows, stated once.
/// CacheStore is three FramedLogs plus the typed encode/decode of each
/// record kind.
///
/// Layout: one JSON object per line, each line CRC32C-framed
/// (support/Checksum.h). The first non-empty line is the header,
/// `{"schema":..., "fingerprint":...[, extra fields]}`; records are
/// trusted only under a header whose schema, fingerprint and extra
/// fields all match. Blank lines are skipped.
///
/// - Loads are one pass. A record line whose frame or JSON fails is
///   counted, bumps `cachestore.crc_mismatch` (frame failures), is copied
///   to the deduplicated `<file>.quarantine` sibling, and is skipped.
///   Lines under an unusable header are counted as stranded.
/// - Appends are one lock-free `O_APPEND` write(2), retried with a
///   jittered backoff. Every append, retries included, starts with a
///   newline. A torn fragment left by another writer's short write or a
///   killed writer is thereby terminated into one corrupt line, and our
///   first record can never fuse onto it.
/// - Rewrites take `<file>.lock` (flock, bounded wait) and rename a
///   PID-named temporary over the file; bind() sweeps dead writers'.
/// - Duplicate keys fold by the log's MergePolicy.
///
/// Fault sites, in the order one operation consults them:
/// `cache.load.eio` once per file read, `cache.load.flip` once per
/// non-empty line read, `cache.append.eio` then `cache.append.short` per
/// append attempt, `cache.lock` per lock attempt, `cache.rename` per
/// rewrite attempt. The header probe and quarantine I/O are unfaulted.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_CAMPAIGN_FRAMEDLOG_H
#define RAMLOC_CAMPAIGN_FRAMEDLOG_H

#include "support/Json.h"

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace ramloc {

/// How records that share a key fold together.
enum class MergePolicy {
  /// The earliest occurrence stands. A load hands records over in file
  /// order, so this is also the journal's ordered replay.
  FirstWins,
  /// Each later occurrence replaces the earlier one.
  NewestWins,
};

/// What one scan of a log saw.
struct ScanStats {
  bool Present = false;       ///< Readable (exists, no injected EIO).
  bool SawFirstLine = false;  ///< Had at least one non-empty line.
  bool HeaderOk = false;      ///< Header framed, parsed and matched.
  bool HeaderDamaged = false; ///< Header failed its frame check.
  size_t CrcFailures = 0;     ///< Frame failures, header included.
  size_t Damaged = 0;         ///< Record lines failing frame or JSON.
  size_t Stranded = 0;        ///< Record lines under an unusable header.
  size_t Rejected = 0;        ///< Valid frames the decoder refused.
  size_t Records = 0;         ///< Decoded records, duplicates included.
  size_t Keys = 0;            ///< Distinct keys among them.
  std::string RawHeader;      ///< The matched header line, verbatim.

  /// Lines a load could not serve.
  size_t skipped() const { return Damaged + Rejected; }
  /// A header was there but named another world or was damaged.
  bool invalidated() const { return SawFirstLine && !HeaderOk; }
};

/// One store file's health as seen by an fsck walk.
struct FsckFile {
  std::string Name; ///< "results", "profiles", "progress".
  std::string Path;
  bool Present = false; ///< The file exists (possibly empty).
  /// The first line framed, parsed, and matched the expected schema and
  /// fingerprint. Vacuously true for absent or empty files.
  bool HeaderOk = true;
  size_t Valid = 0;     ///< CRC-valid, decodable records (distinct keys).
  size_t Corrupt = 0;   ///< Frame/CRC/parse failures (header included).
  size_t Stale = 0;     ///< Lines stranded under an unusable header.
  size_t Duplicate = 0; ///< Repeated keys — benign appender races.
  /// Damage repair would fix; duplicates alone are healthy appends.
  bool damaged() const {
    return (Present && !HeaderOk) || Corrupt != 0 || Stale != 0;
  }
};

class FramedLog {
public:
  /// Decodes one payload and sets its merge key; false refuses the
  /// record (unreadable, or not servable from this log).
  using Decoder = std::function<bool(const JsonValue &, std::string &Key)>;
  /// Receives each record the policy lets replace its key's holder, right
  /// after the Decoder accepted that same line — so a decoder may stash
  /// the typed value for the visitor. \p Raw is the framed line.
  using Visitor =
      std::function<void(const std::string &Key, const std::string &Raw)>;

  FramedLog(const char *Name, const char *FileName, const char *Schema,
            std::string Fingerprint, MergePolicy Policy);

  /// Points the log at <Dir>/<FileName>, forgets what was durable, and
  /// sweeps `<FileName>.tmp.<pid>` temporaries of dead writers, adding
  /// their names to \p Swept.
  void bind(const std::string &Dir, std::vector<std::string> &Swept);

  /// Sets an extra header field the header line carries and a match
  /// requires (the journal pins its solver configuration this way).
  void setHeaderField(const std::string &Field, std::string Value) {
    Extra[Field] = std::move(Value);
  }

  const std::string &path() const { return Path; }

  /// One pass over the file (see the file comment); the keys it keeps
  /// become the durable set persist() diffs against. With
  /// \p AnyExtraValues, extra header fields need only be present strings.
  ScanStats scan(const Decoder &Decode, const Visitor &Visit,
                 bool AnyExtraValues = false);

  /// A scan's counts as one fsck report line.
  FsckFile summarize(const ScanStats &Stats) const;

  /// Persists an in-memory snapshot of \p N records: Key(I) is the I-th
  /// one's identity, Encode(I) its payload, run only for records that go
  /// to disk. A file under our header grows by the records not yet
  /// durable; otherwise, or with \p Rewrite, the whole snapshot replaces
  /// the file.
  bool persist(size_t N, const std::function<std::string(size_t)> &Key,
               const std::function<std::string(size_t)> &Encode,
               bool Rewrite, unsigned LockWaitMs, std::string *Error);

  /// Appends already-framed lines (each newline-terminated).
  bool append(const std::string &Lines, std::string *Error) const;

  /// Replaces the whole file with \p Doc under the lock.
  bool rewrite(const std::string &Doc, unsigned LockWaitMs,
               std::string *Error) const;

  /// This log's header as one framed, newline-terminated line.
  std::string header() const;

private:
  bool headerMatches(const JsonValue &V, bool AnyExtraValues) const;
  /// The lock file rewrites serialize on.
  std::string lockPath() const { return Path + ".lock"; }

  std::string Name;
  std::string FileName;
  std::string Schema;
  std::string Fingerprint;
  MergePolicy Policy;
  std::map<std::string, std::string> Extra;
  std::string Path;
  /// The keys this process knows to be on disk.
  std::set<std::string> Durable;
};

/// Frames \p Payload as one newline-terminated store line.
std::string framedLine(const std::string &Payload);

} // namespace ramloc

#endif // RAMLOC_CAMPAIGN_FRAMEDLOG_H
