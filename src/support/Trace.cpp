//===- support/Trace.cpp - structured span tracing -----------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/Json.h"

#include <algorithm>
#include <atomic>

using namespace ramloc;

namespace {

/// The installed recorder plus a generation stamp. The generation bumps
/// on every install/uninstall, which is what lets each thread cache its
/// ThreadLog pointer: a cached entry is valid exactly while the
/// generation it was created under is still current.
std::atomic<TraceRecorder *> Installed{nullptr};
std::atomic<uint64_t> InstallGeneration{0};

struct TlsCache {
  uint64_t Gen = 0;
  const void *Owner = nullptr; // the recorder the cached log belongs to
  void *Log = nullptr;         // TraceRecorder::ThreadLog, per thread
};
thread_local TlsCache Cache;

} // namespace

TraceRecorder::TraceRecorder() : Epoch(std::chrono::steady_clock::now()) {}

TraceRecorder::~TraceRecorder() {
  if (current() == this)
    uninstall();
}

void TraceRecorder::install() {
  Installed.store(this, std::memory_order_release);
  InstallGeneration.fetch_add(1, std::memory_order_acq_rel);
}

void TraceRecorder::uninstall() {
  Installed.store(nullptr, std::memory_order_release);
  InstallGeneration.fetch_add(1, std::memory_order_acq_rel);
}

TraceRecorder *TraceRecorder::current() {
  return Installed.load(std::memory_order_acquire);
}

uint64_t TraceRecorder::nowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

TraceRecorder::ThreadLog &TraceRecorder::threadLog() {
  uint64_t Gen = InstallGeneration.load(std::memory_order_acquire);
  if (Cache.Log && Cache.Owner == this && Cache.Gen == Gen)
    return *static_cast<ThreadLog *>(Cache.Log);
  std::lock_guard<std::mutex> Lock(Mu);
  Logs.push_back(std::make_unique<ThreadLog>());
  ThreadLog &L = *Logs.back();
  L.Tid = static_cast<unsigned>(Logs.size() - 1);
  Cache.Gen = Gen;
  Cache.Owner = this;
  Cache.Log = &L;
  return L;
}

void TraceRecorder::record(TraceEvent E) {
  ThreadLog &L = threadLog();
  std::lock_guard<std::mutex> Lock(L.Mu);
  E.Tid = L.Tid;
  L.Events.push_back(std::move(E));
}

void TraceRecorder::setThreadName(std::string Name) {
  ThreadLog &L = threadLog();
  std::lock_guard<std::mutex> Lock(L.Mu);
  L.Name = std::move(Name);
}

TraceSnapshot TraceRecorder::snapshot() const {
  TraceSnapshot S;
  std::lock_guard<std::mutex> Lock(Mu);
  for (const std::unique_ptr<ThreadLog> &L : Logs) {
    std::lock_guard<std::mutex> LLock(L->Mu);
    S.Events.insert(S.Events.end(), L->Events.begin(), L->Events.end());
    if (!L->Name.empty())
      S.ThreadNames.emplace_back(L->Tid, L->Name);
  }
  std::sort(S.Events.begin(), S.Events.end(),
            [](const TraceEvent &A, const TraceEvent &B) {
              if (A.Tid != B.Tid)
                return A.Tid < B.Tid;
              if (A.StartNs != B.StartNs)
                return A.StartNs < B.StartNs;
              return A.DurNs > B.DurNs; // parents before their children
            });
  std::sort(S.ThreadNames.begin(), S.ThreadNames.end());
  return S;
}

size_t TraceRecorder::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = 0;
  for (const std::unique_ptr<ThreadLog> &L : Logs) {
    std::lock_guard<std::mutex> LLock(L->Mu);
    N += L->Events.size();
  }
  return N;
}

TraceSpan::~TraceSpan() {
  if (!R)
    return;
  // The recorder may have been uninstalled (and possibly destroyed)
  // while this span was open; recording into it then would be a
  // use-after-free, so spans crossing the install window are dropped.
  if (TraceRecorder::current() != R)
    return;
  TraceEvent E;
  E.Name = Name;
  E.Category = Category;
  E.StartNs = StartNs;
  E.DurNs = R->nowNs() - StartNs;
  E.Args = std::move(Args);
  R->record(std::move(E));
}

TraceSpan &TraceSpan::arg(const char *Key, std::string Value) {
  if (R)
    Args.emplace_back(Key, std::move(Value));
  return *this;
}

std::string ramloc::traceToChromeJson(const TraceSnapshot &S, bool Pretty) {
  JsonWriter W(Pretty);
  W.beginObject();
  W.field("displayTimeUnit", "ms");
  W.key("traceEvents").beginArray();
  for (const auto &[Tid, Name] : S.ThreadNames) {
    W.beginObject();
    W.field("name", "thread_name");
    W.field("ph", "M");
    W.field("pid", 1);
    W.field("tid", static_cast<uint64_t>(Tid));
    W.key("args").beginObject();
    W.field("name", Name);
    W.endObject();
    W.endObject();
  }
  for (const TraceEvent &E : S.Events) {
    W.beginObject();
    W.field("name", E.Name);
    W.field("cat", E.Category);
    W.field("ph", "X");
    W.field("pid", 1);
    W.field("tid", static_cast<uint64_t>(E.Tid));
    // trace_event timestamps are microseconds; keep nanosecond precision
    // in the fraction.
    W.field("ts", static_cast<double>(E.StartNs) / 1000.0);
    W.field("dur", static_cast<double>(E.DurNs) / 1000.0);
    if (!E.Args.empty()) {
      W.key("args").beginObject();
      for (const auto &[K, V] : E.Args)
        W.field(K, V);
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return std::move(W).str();
}
