//===- support/Metrics.h - named counters and histograms -------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A central registry of named metrics, the one source of truth for
/// "how much work did that take": solver pivots and branch & bound
/// nodes, simulation-vs-recost counts, cache traffic, queue idle time.
/// The campaign engine counts its effort into a registry (campaign.*
/// keys), SolverEffortTest's count gates read the mip.* counters, and
/// `ramloc-batch --metrics=FILE` snapshots everything to
/// machine-readable JSON.
///
/// Two instrument kinds:
///  - Counter: monotonic uint64, lock-free add. The workhorse.
///  - Histogram: running count/sum/min/max of recorded samples —
///    enough for "pivots per solve" style distributions without
///    bucket-boundary bikeshedding.
///
/// Instruments are created on first use and never destroyed while their
/// registry lives, so call sites may cache references. Snapshots
/// serialize sorted by name: identical recorded values produce
/// byte-identical JSON. Metrics are a side channel — nothing read from
/// a registry may influence results, the same contract tracing follows.
///
/// Deep layers with no campaign plumbing (the LP solver, the
/// measurement pipeline's simulations and recosts, the campaign's worker
/// loop, the cache store) record into the process-wide globalMetrics(),
/// each where its work happens, so sim.full_sims counts every full
/// simulation with or without a profile cache. runCampaign records its
/// campaign.* counters into the registry the caller passes
/// (CampaignOptions::Metrics), defaulting to a private one;
/// campaign.sim.* is the growth of the global sim.* counters over the
/// campaign's run, so two campaigns running at once in one process
/// count each other's runs.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_SUPPORT_METRICS_H
#define RAMLOC_SUPPORT_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace ramloc {

/// Monotonic event count.
class Counter {
public:
  void add(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// Running summary statistics over recorded samples.
class Histogram {
public:
  struct Stats {
    uint64_t Count = 0;
    double Sum = 0.0;
    double Min = 0.0; ///< 0 when Count == 0
    double Max = 0.0;

    double mean() const { return Count ? Sum / double(Count) : 0.0; }
  };

  void record(double Sample) {
    std::lock_guard<std::mutex> Lock(Mu);
    if (S.Count == 0) {
      S.Min = S.Max = Sample;
    } else {
      if (Sample < S.Min)
        S.Min = Sample;
      if (Sample > S.Max)
        S.Max = Sample;
    }
    ++S.Count;
    S.Sum += Sample;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return S;
  }

private:
  mutable std::mutex Mu;
  Stats S;
};

/// The registry: named instruments, created on demand, stable addresses.
class MetricsRegistry {
public:
  Counter &counter(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// Current value of counter \p Name; 0 when it was never created.
  /// The non-creating read the CLI summary and tests use.
  uint64_t counterValue(const std::string &Name) const;

  /// Serializes every instrument, sorted by name within its kind:
  ///
  ///   { "schema": "ramloc-metrics-v1",
  ///     "counters": {"mip.nodes": 123, ...},
  ///     "histograms": {"campaign.solve.pivots":
  ///         {"count":9,"sum":...,"min":...,"max":...,"mean":...}, ...} }
  ///
  /// Byte-identical for identical recorded values.
  std::string toJson(bool Pretty = true) const;

private:
  mutable std::mutex Mu;
  // std::map: sorted iteration for deterministic serialization, and
  // node-stable addresses so returned references survive later inserts.
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
};

/// The process-wide registry deep layers record into (mip.*, sim.*,
/// jobqueue.*, cache.* keys). Never cleared; consumers that need a
/// window take counter deltas around it.
MetricsRegistry &globalMetrics();

} // namespace ramloc

#endif // RAMLOC_SUPPORT_METRICS_H
