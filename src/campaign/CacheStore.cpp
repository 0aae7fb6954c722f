//===- campaign/CacheStore.cpp - persistent result cache -----------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "campaign/CacheStore.h"

#include "campaign/Report.h"
#include "power/DeviceRegistry.h"
#include "support/Format.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>

using namespace ramloc;

namespace {

// v2 is the CRC32C line framing. Schemas feed the fingerprints, so v1
// stores never match and are retired wholesale instead of half-read.
constexpr const char *StoreSchema = "ramloc-cache-v2";
constexpr const char *ReportSchema = "ramloc-campaign-v2";
constexpr const char *ProfileSchema = "ramloc-profiles-v2";
constexpr const char *JournalSchema = "ramloc-progress-v2";
/// Bump when the interpreter's architectural behaviour (instruction
/// semantics, block accounting, halt conventions) changes in a way that
/// alters recorded profiles. Timing/power changes do NOT bump it.
constexpr const char *SimSemanticsTag = "ramloc-sim-semantics-v1";

void hashBytes(uint64_t &H, std::string_view S) {
  H = fnv1a64(H, S);
  H ^= 0xff; // field separator so adjacent strings cannot alias
  H *= Fnv1aPrime;
}

void hashDouble(uint64_t &H, double V) {
  // Hash the canonical decimal spelling, not raw bits, so the fingerprint
  // is stable across platforms that agree on the value.
  hashBytes(H, jsonNumber(V));
}

/// Hashes every device's power table and timing model into \p H.
void hashDeviceRegistry(uint64_t &H) {
  for (const DeviceInfo &D : deviceRegistry()) {
    hashBytes(H, D.Name);
    D.Model.forEachActiveValue([&H](double V) { hashDouble(H, V); });
    hashDouble(H, D.Model.SleepMilliWatts);
    hashDouble(H, D.Model.ClockHz);
    const TimingModel &T = D.Timing;
    for (unsigned V : {T.AluCycles, T.MulCycles, T.MlaCycles, T.DivCycles,
                       T.LoadCycles, T.StoreCycles, T.BranchRefillCycles,
                       T.BranchIssueCycles, T.CallCycles, T.CallRegCycles,
                       T.BxCycles, T.ItCycles, T.SkippedCycles,
                       T.NopCycles, T.RamContentionStall,
                       T.FlashWaitStates})
      hashBytes(H, formatString("%u", V));
  }
}

std::string resultJson(const JobResult &R) {
  JsonWriter W(/*Pretty=*/false);
  writeJobResult(W, R);
  return std::move(W).str();
}

bool servable(const JobResult &R) {
  return R.ok() && R.SolveOutcome == SolveStatus::Optimal;
}

// Decoders stash the typed value in \p Out for the visitor that runs
// right after them (FramedLog::Visitor).
FramedLog::Decoder decodeResult(JobResult &Out, bool ServableOnly) {
  return [&Out, ServableOnly](const JsonValue &V, std::string &Key) {
    Out = JobResult();
    if (!parseJobResult(V, Out) || (ServableOnly && !servable(Out)))
      return false;
    Key = Out.Spec.cacheKey();
    return true;
  };
}

FramedLog::Decoder decodeProfile(std::shared_ptr<ExecutionProfile> &Out) {
  return [&Out](const JsonValue &V, std::string &Key) {
    Out = std::make_shared<ExecutionProfile>();
    return parseExecutionProfile(V, Key, *Out);
  };
}

/// Hands a sorted in-memory snapshot to FramedLog::persist: \p Encode
/// gives each entry's payload.
template <typename Entry, typename EncodeFn>
bool persistSnapshot(FramedLog &Log,
                     const std::vector<std::pair<std::string, Entry>> &Snap,
                     EncodeFn Encode, bool Rewrite, unsigned LockWaitMs,
                     std::string *Error) {
  return Log.persist(
      Snap.size(), [&](size_t I) { return Snap[I].first; },
      [&](size_t I) { return Encode(Snap[I].first, Snap[I].second); },
      Rewrite, LockWaitMs, Error);
}

} // namespace

CacheStore::CacheStore()
    : Results("results", "results.jsonl", StoreSchema, fingerprint(),
              MergePolicy::FirstWins),
      ProfileLog("profiles", "profiles.jsonl", ProfileSchema,
                 profileFingerprint(), MergePolicy::NewestWins),
      Journal("progress", "progress.jsonl", JournalSchema, fingerprint(),
              MergePolicy::FirstWins) {
  // The journal's header also pins the run configuration: resuming under
  // different solver settings must recompute, not replay.
  Journal.setHeaderField("config", "");
}

std::string CacheStore::fingerprint() {
  uint64_t H = Fnv1aOffset;
  hashBytes(H, StoreSchema);
  hashBytes(H, ReportSchema);
  hashDeviceRegistry(H);
  return formatString("%016llx", static_cast<unsigned long long>(H));
}

std::string CacheStore::profileFingerprint() {
  uint64_t H = Fnv1aOffset;
  hashBytes(H, ProfileSchema);
  hashBytes(H, SimSemanticsTag);
  return formatString("%016llx", static_cast<unsigned long long>(H));
}

bool CacheStore::opened(std::string *Error) const {
  if (!Results.path().empty())
    return true;
  if (Error)
    *Error = "cache store was never opened";
  return false;
}

ScanStats CacheStore::tally(ScanStats S) {
  CrcMismatches += S.CrcFailures;
  return S;
}

bool CacheStore::open(const std::string &Dir, std::string *Error) {
  TraceSpan Span("cache.load", "cache");
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (EC) {
    if (Error)
      *Error = "cannot create cache directory '" + Dir +
               "': " + EC.message();
    return false;
  }
  CrcMismatches = 0;
  SweptTemps.clear();
  for (FramedLog *Log : {&Results, &ProfileLog, &Journal})
    Log->bind(Dir, SweptTemps);
  std::sort(SweptTemps.begin(), SweptTemps.end());

  // Degraded or failed results are never servable (we never write them;
  // an external tool may have). They are refused before the first-wins
  // fold, so a valid entry appended later for the same key still loads.
  JobResult R;
  ResultStats = tally(Results.scan(
      decodeResult(R, /*ServableOnly=*/true),
      [&](const std::string &Key, const std::string &) {
        Cache.insert(Key, R);
      }));
  std::shared_ptr<ExecutionProfile> P;
  ProfileStats = tally(ProfileLog.scan(
      decodeProfile(P), [&](const std::string &Key, const std::string &) {
        Profiles.preload(Key, std::move(P));
      }));
  return true;
}

bool CacheStore::persist(FramedLog &Log, bool Rewrite, std::string *Error) {
  if (&Log == &Results) {
    // Failed and degraded results are not durable (see save()); the
    // journal, not this cache, is where degraded results persist.
    auto Snap = Cache.snapshot();
    std::erase_if(Snap, [](const auto &KV) { return !servable(KV.second); });
    return persistSnapshot(
        Log, Snap,
        [](const std::string &, const JobResult &R) { return resultJson(R); },
        Rewrite, LockWaitMs, Error);
  }
  return persistSnapshot(
      Log, profileSnapshot(Profiles),
      [](const std::string &Key, const auto &Profile) {
        JsonWriter W(/*Pretty=*/false);
        writeExecutionProfile(W, Key, *Profile);
        return std::move(W).str();
      },
      Rewrite, LockWaitMs, Error);
}

bool CacheStore::save(std::string *Error) {
  TraceSpan Span("cache.append", "cache");
  return opened(Error) && persist(Results, false, Error) &&
         persist(ProfileLog, false, Error);
}

bool CacheStore::compact(std::string *Error) {
  TraceSpan Span("cache.compact", "cache");
  return opened(Error) && persist(Results, true, Error) &&
         persist(ProfileLog, true, Error);
}

bool CacheStore::beginJournal(const std::string &ConfigToken, bool Resume,
                              std::string *Error) {
  if (!opened(Error))
    return false;
  JournalPath = Journal.path();
  JournalResults.clear();
  JournalStats = ScanStats();
  Journal.setHeaderField("config", ConfigToken);
  if (Resume) {
    // A retried short write may have left a job twice; the first
    // occurrence is the one the interrupted run reported.
    JobResult R;
    JournalStats = tally(Journal.scan(
        decodeResult(R, /*ServableOnly=*/false),
        [&](const std::string &, const std::string &) {
          JournalResults.push_back(std::move(R));
        }));
    // Extend a journal whose header matches; any torn tail there is
    // terminated by our first append's leading newline.
    if (JournalStats.HeaderOk)
      return true;
  }
  return Journal.rewrite(Journal.header(), LockWaitMs, Error);
}

bool CacheStore::appendJournal(const JobResult &R, std::string *Error) {
  if (JournalPath.empty())
    return true;
  return Journal.append(framedLine(resultJson(R)), Error);
}

void CacheStore::clearJournal() {
  if (JournalPath.empty())
    return;
  std::remove(JournalPath.c_str());
  JournalPath.clear();
}

bool CacheStore::fsck(bool Repair, FsckReport &Report, std::string *Error) {
  TraceSpan Span("cache.fsck", "cache");
  if (!opened(Error))
    return false;
  Report = FsckReport();
  Report.OrphanedTemps = SweptTemps;

  JobResult R;
  std::shared_ptr<ExecutionProfile> P;
  std::string JournalLines;
  std::pair<FramedLog *, FramedLog::Decoder> Walks[] = {
      {&Results, decodeResult(R, /*ServableOnly=*/true)},
      {&ProfileLog, decodeProfile(P)}};
  auto Ignore = [](const std::string &, const std::string &) {};
  for (auto &[Log, Decode] : Walks)
    Report.Files.push_back(Log->summarize(tally(Log->scan(Decode, Ignore))));
  // The journal is checked under any configuration token (which solver
  // settings a run used is resume's business, not integrity's); its
  // first-wins survivors are collected for its repair.
  ScanStats J = tally(Journal.scan(
      decodeResult(R, /*ServableOnly=*/false),
      [&](const std::string &, const std::string &Raw) {
        JournalLines += Raw + "\n";
      },
      /*AnyExtraValues=*/true));
  Report.Files.push_back(Journal.summarize(J));
  if (!Repair)
    return true;

  // The record files repair from what open() served: the compaction
  // rewrite. Lines stranded under an untrusted header fall with it.
  for (size_t I = 0; I != std::size(Walks); ++I)
    if (Report.Files[I].damaged() && !persist(*Walks[I].first, true, Error))
      return false;

  // The journal repairs from its own walk with its header verbatim, so
  // --resume still honours the pinned configuration; one whose header
  // cannot be trusted is removed — recomputing beats replaying records
  // from an unknown world.
  const FsckFile &JF = Report.Files.back();
  if (JF.Present && !JF.HeaderOk)
    std::remove(Journal.path().c_str());
  else if (JF.damaged())
    return Journal.rewrite(J.RawHeader + "\n" + JournalLines, LockWaitMs,
                           Error);
  return true;
}
