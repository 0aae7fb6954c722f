//===- campaign/FramedLog.cpp - one CRC-framed JSON-lines store file -----------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "campaign/FramedLog.h"

#include "campaign/Report.h"
#include "support/Checksum.h"
#include "support/FaultInjector.h"
#include "support/FileLock.h"
#include "support/Hash.h"
#include "support/Metrics.h"
#include "support/Random.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/uio.h>
#include <unistd.h>

using namespace ramloc;

std::string ramloc::framedLine(const std::string &Payload) {
  return frameRecord(Payload) + "\n";
}

namespace {

/// Atomic whole-file replacement: temporary in the same directory,
/// renamed over the target. The temporary's name carries the writer's
/// PID, so `--shard` runs repairing the same file concurrently each
/// rename their own complete document; last-rename-wins is then safe.
bool replaceFile(const std::string &Path, const std::string &Doc,
                 std::string *Error) {
  std::string Tmp =
      Path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  if (!writeTextFile(Tmp, Doc, Error))
    return false;
  // Fault site: the rename itself fails (e.g. EIO on the directory).
  if (!FaultInjector::shouldFail("cache.rename") &&
      std::rename(Tmp.c_str(), Path.c_str()) == 0)
    return true;
  std::remove(Tmp.c_str());
  if (Error)
    *Error = "cannot rename '" + Tmp + "' to '" + Path + "'";
  return false;
}

/// Appends a newline and then \p Lines with O_APPEND in one writev(2)
/// call, so the batch lands contiguously even when other processes append
/// concurrently (an ofstream could split it across writes and let another
/// writer tear a record mid-line). A short write is reported as an error.
bool appendToFile(const std::string &Path, const std::string &Lines,
                  std::string *Error) {
  // Fault site: the open itself fails (transient EIO / EMFILE class).
  int Fd = FaultInjector::shouldFail("cache.append.eio")
               ? -1
               : ::open(Path.c_str(),
                        O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (Fd < 0) {
    if (Error)
      *Error = "cannot open '" + Path + "' for append";
    return false;
  }
  // Fault site: a short write — half the batch really lands on disk,
  // exactly the torn tail ENOSPC or a mid-transfer signal leaves.
  size_t Size = Lines.size() + 1;
  size_t ToWrite =
      FaultInjector::shouldFail("cache.append.short") ? Size / 2 : Size;
  iovec Iov[] = {{const_cast<char *>("\n"), 1},
                 {const_cast<char *>(Lines.data()), ToWrite - 1}};
  bool Whole = ::writev(Fd, Iov, 2) == static_cast<ssize_t>(Size);
  ::close(Fd);
  if (!Whole && Error)
    *Error = "short append to '" + Path + "'";
  return Whole;
}

/// Bounded, jittered retry around one transient-I/O operation: up to
/// three attempts; every re-attempt bumps `cachestore.retries` and sleeps
/// a doubling ~1-3 ms backoff with jitter seeded from \p Site, so tests
/// replay.
template <typename Fn> bool withRetries(Fn &&Op, const std::string &Site) {
  constexpr unsigned MaxAttempts = 3;
  SplitMix64 Jitter(fnv1a64(Site));
  for (unsigned Attempt = 0;; ++Attempt) {
    if (Op())
      return true;
    if (Attempt + 1 == MaxAttempts)
      return false;
    globalMetrics().counter("cachestore.retries").add();
    unsigned DelayUs = (1000u << Attempt) +
                       static_cast<unsigned>(Jitter.nextBelow(1000));
    std::this_thread::sleep_for(std::chrono::microseconds(DelayUs));
  }
}

bool isStringField(const JsonValue &V, const std::string &Field,
                   const std::string *Want) {
  const JsonValue *F = V.find(Field);
  return F && F->kind() == JsonValue::Kind::String &&
         (!Want || F->string() == *Want);
}

} // namespace

FramedLog::FramedLog(const char *Name, const char *FileName,
                     const char *Schema, std::string Fingerprint,
                     MergePolicy Policy)
    : Name(Name), FileName(FileName), Schema(Schema),
      Fingerprint(std::move(Fingerprint)), Policy(Policy) {}

void FramedLog::bind(const std::string &Dir,
                     std::vector<std::string> &Swept) {
  Path = (std::filesystem::path(Dir) / FileName).string();
  Durable.clear();
  // A rewrite killed between temp-write and rename leaks its temporary.
  // Only a dead writer's go: kill(pid, 0) succeeding or failing with
  // EPERM means a live writer whose rename is still coming.
  std::string Prefix = FileName + ".tmp.";
  std::error_code EC;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, EC)) {
    std::string File = Entry.path().filename().string();
    std::string Pid = File.substr(std::min(Prefix.size(), File.size()));
    if (File.compare(0, Prefix.size(), Prefix) != 0 || Pid.empty() ||
        Pid.find_first_not_of("0123456789") != std::string::npos)
      continue;
    long P = std::strtol(Pid.c_str(), nullptr, 10);
    std::error_code StatEC;
    if (P <= 0 || P == static_cast<long>(::getpid()) ||
        !Entry.is_regular_file(StatEC) ||
        ::kill(static_cast<pid_t>(P), 0) == 0 || errno == EPERM)
      continue;
    std::error_code RmEC;
    std::filesystem::remove(Entry.path(), RmEC);
    if (!RmEC)
      Swept.push_back(File);
  }
}

std::string FramedLog::header() const {
  JsonWriter W(/*Pretty=*/false);
  W.beginObject();
  W.field("schema", Schema);
  W.field("fingerprint", Fingerprint);
  for (const auto &[F, V] : Extra)
    W.field(F, V);
  W.endObject();
  return framedLine(W.str());
}

bool FramedLog::headerMatches(const JsonValue &V,
                              bool AnyExtraValues) const {
  if (!isStringField(V, "schema", &Schema) ||
      !isStringField(V, "fingerprint", &Fingerprint))
    return false;
  for (const auto &[F, Want] : Extra)
    if (!isStringField(V, F, AnyExtraValues ? nullptr : &Want))
      return false;
  return true;
}

ScanStats FramedLog::scan(const Decoder &Decode, const Visitor &Visit,
                          bool AnyExtraValues) {
  ScanStats S;
  Durable.clear();
  if (FaultInjector::shouldFail("cache.load.eio"))
    return S; // transient EIO: this load sees no file
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return S;
  S.Present = true;
  // Damaged lines are evidence (of bad RAM, a lying NFS server, a
  // half-dead disk) that should outlive the repair removing them: they
  // are copied to the `.quarantine` sibling, deduplicated against its
  // lines so reloads do not grow it. Plain, unfaulted I/O — routing it
  // through the injected sites would shift every later call index.
  std::string QPath = Path + ".quarantine";
  std::optional<std::set<std::string>> Quarantined;
  auto quarantine = [&](const std::string &Raw) {
    if (!Quarantined) {
      Quarantined.emplace();
      std::ifstream QIn(QPath, std::ios::binary);
      for (std::string Q; std::getline(QIn, Q);)
        Quarantined->insert(Q);
    }
    if (Quarantined->insert(Raw).second)
      std::ofstream(QPath, std::ios::binary | std::ios::app) << Raw << "\n";
  };
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    if (FaultInjector::shouldFail("cache.load.flip"))
      Line[Line.size() / 2] ^= 0x01;
    bool IsHeader = !S.SawFirstLine;
    S.SawFirstLine = true;
    if (!IsHeader && !S.HeaderOk) {
      ++S.Stranded;
      continue;
    }
    std::string_view Payload;
    bool Framed = unframeRecord(Line, Payload);
    JsonValue V;
    bool Parsed = Framed && JsonValue::parse(Payload, V);
    if (IsHeader) {
      // A damaged header is counted but not quarantined: with no trusted
      // header there is no trusted world to sort lines into, and the
      // whole file is preserved in place until a repair rewrites it.
      if (!Framed) {
        S.HeaderDamaged = true;
        ++S.CrcFailures;
        globalMetrics().counter("cachestore.crc_mismatch").add();
      } else if (Parsed && headerMatches(V, AnyExtraValues)) {
        S.HeaderOk = true;
        S.RawHeader = Line;
      }
      continue;
    }
    if (!Parsed) {
      if (!Framed) {
        ++S.CrcFailures;
        globalMetrics().counter("cachestore.crc_mismatch").add();
      }
      ++S.Damaged;
      quarantine(Line);
      continue;
    }
    std::string Key;
    if (!Decode(V, Key)) {
      ++S.Rejected;
      continue;
    }
    ++S.Records;
    if (Durable.insert(Key).second)
      ++S.Keys;
    else if (Policy != MergePolicy::NewestWins)
      continue;
    Visit(Key, Line);
  }
  return S;
}

FsckFile FramedLog::summarize(const ScanStats &S) const {
  FsckFile F;
  F.Name = Name;
  F.Path = Path;
  F.Present = S.Present;
  F.HeaderOk = !S.invalidated();
  F.Valid = S.Keys;
  F.Duplicate = S.Records - S.Keys;
  F.Corrupt = S.Damaged + S.Rejected + (S.HeaderDamaged ? 1 : 0);
  // A header that framed correctly but names another world is a stale
  // line, not a corrupt one.
  F.Stale = S.Stranded + (S.invalidated() && !S.HeaderDamaged ? 1 : 0);
  return F;
}

bool FramedLog::persist(size_t N,
                        const std::function<std::string(size_t)> &Key,
                        const std::function<std::string(size_t)> &Encode,
                        bool Rewrite, unsigned LockWaitMs,
                        std::string *Error) {
  // Append only under our header, probed now rather than at load time:
  // a file another writer created or repaired since is extended, not
  // clobbered.
  std::ifstream In(Path, std::ios::binary);
  std::string First;
  std::string_view Payload;
  JsonValue V;
  if (Rewrite || !std::getline(In, First) || !unframeRecord(First, Payload) ||
      !JsonValue::parse(Payload, V) || !headerMatches(V, false)) {
    std::string Doc = header();
    std::set<std::string> Keys;
    for (size_t I = 0; I != N; ++I) {
      Doc += framedLine(Encode(I));
      Keys.insert(Key(I));
    }
    if (!rewrite(Doc, LockWaitMs, Error))
      return false;
    Durable = std::move(Keys);
    return true;
  }
  std::string Doc;
  std::vector<std::string> Fresh;
  for (size_t I = 0; I != N; ++I) {
    std::string K = Key(I);
    if (Durable.count(K))
      continue;
    Doc += framedLine(Encode(I));
    Fresh.push_back(std::move(K));
  }
  if (Doc.empty())
    return true;
  if (!append(Doc, Error))
    return false;
  Durable.insert(std::make_move_iterator(Fresh.begin()),
                 std::make_move_iterator(Fresh.end()));
  return true;
}

bool FramedLog::append(const std::string &Lines, std::string *Error) const {
  // The leading newline terminates any torn fragment at the tail — left
  // by another writer, a killed one, or our own failed attempt — into
  // one corrupt line the next load quarantines. Complete lines a failed
  // attempt did land become duplicates the merge policy folds away.
  return withRetries([&] { return appendToFile(Path, Lines, Error); }, Path);
}

bool FramedLog::rewrite(const std::string &Doc, unsigned LockWaitMs,
                        std::string *Error) const {
  // The lock serializes rewriters; appends never take it — the rewrite
  // it might race yields a valid file either way, and the appended
  // records re-append at the writer's next save.
  FileLock Lock;
  if (!Lock.acquire(lockPath(), LockWaitMs, Error))
    return false;
  return withRetries([&] { return replaceFile(Path, Doc, Error); }, Path);
}
