//===- sim/ProfileCache.h - shared execution-profile cache ------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe, compute-once cache of ExecutionProfiles keyed by
/// execution key (image fingerprint + initial arguments). "Compute-once"
/// is the load-bearing property: when a campaign fans one benchmark
/// across N devices concurrently, the first worker to reach an execution
/// key claims it and simulates; every other worker blocks on that key
/// until the profile is published, then recosts. The grid therefore
/// performs exactly one full simulation per distinct execution no matter
/// how the scheduler interleaves the device axis. The cache is
/// support/OnceMap itself; a published nullptr means the owning run
/// could not produce a valid profile, and waiters then simulate their
/// own runs.
///
/// How runs were satisfied (sim.full_sims, sim.recosts, sim.derived) is
/// counted in the metrics registry where the work happens
/// (core/Pipeline.cpp), with or without a cache.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_SIM_PROFILECACHE_H
#define RAMLOC_SIM_PROFILECACHE_H

#include "sim/ExecutionProfile.h"

#include "support/OnceMap.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace ramloc {

using ProfileCache =
    OnceMap<std::string, std::shared_ptr<const ExecutionProfile>>;

/// \p Cache's valid, published profiles sorted by key: what CacheStore
/// persists, in its order.
inline std::vector<
    std::pair<std::string, std::shared_ptr<const ExecutionProfile>>>
profileSnapshot(const ProfileCache &Cache) {
  std::vector<std::pair<std::string, std::shared_ptr<const ExecutionProfile>>>
      Out;
  Cache.forEachPublished(
      [&Out](const std::string &Key,
             const std::shared_ptr<const ExecutionProfile> &P) {
        if (P && P->Valid)
          Out.emplace_back(Key, P);
      });
  std::sort(Out.begin(), Out.end(),
            [](const auto &A, const auto &B) { return A.first < B.first; });
  return Out;
}

} // namespace ramloc

#endif // RAMLOC_SIM_PROFILECACHE_H
