//===- sim/ProfileCache.cpp - shared execution-profile cache -------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "sim/ProfileCache.h"

#include "support/Metrics.h"

#include <algorithm>

using namespace ramloc;

std::shared_ptr<const ExecutionProfile>
ProfileCache::acquire(const std::string &Key, bool &Owner) {
  Owner = false;
  std::shared_ptr<Entry> E;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    std::shared_ptr<Entry> &Slot = Map[Key];
    if (!Slot) {
      Slot = std::make_shared<Entry>();
      Owner = true;
      return nullptr;
    }
    E = Slot;
  }
  std::unique_lock<std::mutex> Lock(E->M);
  E->CV.wait(Lock, [&E] { return E->Done; });
  return E->Profile;
}

void ProfileCache::publish(const std::string &Key,
                           std::shared_ptr<const ExecutionProfile> Profile) {
  std::shared_ptr<Entry> E;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Map.find(Key);
    if (It == Map.end())
      It = Map.emplace(Key, std::make_shared<Entry>()).first;
    E = It->second;
  }
  {
    std::lock_guard<std::mutex> Lock(E->M);
    E->Profile = std::move(Profile);
    E->Done = true;
  }
  E->CV.notify_all();
}

void ProfileCache::preload(const std::string &Key,
                           std::shared_ptr<const ExecutionProfile> Profile) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::shared_ptr<Entry> &Slot = Map[Key];
  if (Slot)
    return; // first publisher wins; never clobber an in-flight compute
  Slot = std::make_shared<Entry>();
  Slot->Profile = std::move(Profile);
  Slot->Done = true;
}

void ProfileCache::noteFullSim() {
  globalMetrics().counter("sim.full_sims").add();
  std::lock_guard<std::mutex> Lock(Mu);
  ++Stats.FullSims;
}

void ProfileCache::noteRecost(bool Derived) {
  globalMetrics().counter("sim.recosts").add();
  if (Derived)
    globalMetrics().counter("sim.derived").add();
  std::lock_guard<std::mutex> Lock(Mu);
  ++Stats.Recosts;
  Stats.Derived += Derived;
}

ProfileCache::Counters ProfileCache::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Stats;
}

std::vector<std::pair<std::string, std::shared_ptr<const ExecutionProfile>>>
ProfileCache::snapshot() const {
  std::vector<std::pair<std::string, std::shared_ptr<const ExecutionProfile>>>
      Out;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (const auto &[Key, E] : Map) {
      // Ready/valid checks only; snapshot never blocks on in-flight
      // computes (Done is written under E->M, but a racing writer just
      // means the entry lands in the next snapshot).
      std::lock_guard<std::mutex> ELock(E->M);
      if (E->Done && E->Profile && E->Profile->Valid)
        Out.emplace_back(Key, E->Profile);
    }
  }
  std::sort(Out.begin(), Out.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  return Out;
}

size_t ProfileCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = 0;
  for (const auto &[Key, E] : Map) {
    std::lock_guard<std::mutex> ELock(E->M);
    if (E->Done && E->Profile && E->Profile->Valid)
      ++N;
  }
  return N;
}
