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
  return Map.acquire(Key, Owner);
}

void ProfileCache::publish(const std::string &Key,
                           std::shared_ptr<const ExecutionProfile> Profile) {
  Map.publish(Key, std::move(Profile));
}

void ProfileCache::preload(const std::string &Key,
                           std::shared_ptr<const ExecutionProfile> Profile) {
  Map.preload(Key, std::move(Profile));
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
  Map.forEachPublished(
      [&Out](const std::string &Key,
             const std::shared_ptr<const ExecutionProfile> &P) {
        if (P && P->Valid)
          Out.emplace_back(Key, P);
      });
  std::sort(Out.begin(), Out.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  return Out;
}

size_t ProfileCache::size() const {
  size_t N = 0;
  Map.forEachPublished(
      [&N](const std::string &,
           const std::shared_ptr<const ExecutionProfile> &P) {
        N += P && P->Valid;
      });
  return N;
}
