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
/// key becomes its owner and simulates; every other worker blocks on that
/// key until the profile is published, then recosts. The grid therefore
/// performs exactly one full simulation per distinct execution no matter
/// how the scheduler interleaves the device axis — the invariant the
/// campaign run counters assert. The compute-once mechanics are
/// support/OnceMap's; this class adds the profile-specific counters and
/// persistence views.
///
/// The cache also tallies how runs were satisfied (full simulations vs
/// recosts), which the campaign engine surfaces as diagnostics and
/// CampaignTest's DeviceAxisIsOneSimulationPlusRecosts gates on.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_SIM_PROFILECACHE_H
#define RAMLOC_SIM_PROFILECACHE_H

#include "sim/ExecutionProfile.h"

#include "support/OnceMap.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ramloc {

class ProfileCache {
public:
  /// How measurements through this cache were satisfied.
  struct Counters {
    uint64_t FullSims = 0; ///< runs that executed the interpreter
    /// Runs priced from a profile instead: one shared through this cache,
    /// or one derived from a profiled baseline's (deriveOptimizedProfile
    /// in core/Instrumenter.h), which the cache never holds.
    uint64_t Recosts = 0;
    uint64_t Derived = 0; ///< the recosts of derived profiles
  };

  /// Looks \p Key up. If another caller owns the key's computation, blocks
  /// until it publishes, then returns the profile (possibly nullptr when
  /// the owning run could not produce a valid one). If the key is
  /// untouched, returns nullptr with \p Owner set: the caller must
  /// simulate and then publish() exactly once (nullptr on failure), or
  /// every later acquirer of the key deadlocks.
  std::shared_ptr<const ExecutionProfile> acquire(const std::string &Key,
                                                  bool &Owner);

  /// Publishes the owner's result for \p Key and wakes all waiters.
  /// \p Profile may be nullptr (the run faulted or hit the cycle limit);
  /// waiters then fall back to their own full simulations.
  void publish(const std::string &Key,
               std::shared_ptr<const ExecutionProfile> Profile);

  /// Non-blocking insert of an already-computed profile (disk preload).
  /// Keys already present are left untouched.
  void preload(const std::string &Key,
               std::shared_ptr<const ExecutionProfile> Profile);

  void noteFullSim();
  void noteRecost(bool Derived = false);
  Counters counters() const;

  /// Valid, ready profiles sorted by key (the persistence order).
  std::vector<std::pair<std::string, std::shared_ptr<const ExecutionProfile>>>
  snapshot() const;

  /// Number of valid, ready profiles.
  size_t size() const;

private:
  OnceMap<std::string, std::shared_ptr<const ExecutionProfile>> Map;
  mutable std::mutex Mu; ///< guards Stats
  Counters Stats;
};

} // namespace ramloc

#endif // RAMLOC_SIM_PROFILECACHE_H
