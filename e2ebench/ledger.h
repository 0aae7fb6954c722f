//===- e2ebench/ledger.h - per-layer time ledger from trace spans -*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns one traced campaign pass into a per-layer ledger: for every span
/// name, how often it ran, its total time and its self time (the span's
/// duration minus the part of that interval its child spans cover).
///
/// Spans on one thread nest by time. A span that opens a worker thread's
/// stack (the job queue's "job" span) has its parent on the main thread:
/// the innermost main-thread span that encloses it. Children on several
/// workers may overlap, so self time subtracts the union of the child
/// intervals, never their sum.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_E2EBENCH_LEDGER_H
#define RAMLOC_E2EBENCH_LEDGER_H

#include "support/Trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// What one span name cost over a pass.
struct SpanStats {
  uint64_t Calls = 0;
  double TotalMs = 0.0;
  double SelfMs = 0.0;
  /// Every call's duration, for percentiles.
  std::vector<double> DurMs;
};

/// A stage the program has no span for, timed from outside by calling
/// its public function on the same inputs.
struct OutsideStage {
  uint64_t Calls = 0;
  double Ms = 0.0;
};

struct Ledger {
  std::map<std::string, SpanStats> Spans;

  const SpanStats &span(const std::string &Name) const;
};

/// Builds the ledger of \p S. \p MainTid is the thread that opened the
/// campaign; root spans of every other thread hang off its spans.
Ledger buildLedger(const ramloc::TraceSnapshot &S, unsigned MainTid);

/// Nearest-rank percentile (\p P in [0, 100]) of \p Values; 0 when empty.
double percentile(std::vector<double> Values, double P);

/// The median of \p Values; 0 when empty.
double median(std::vector<double> Values);

/// A fixed-width table: one row per span name and per outside-timed
/// stage, with call count, self time and share of \p WallMs.
std::string ledgerTable(const Ledger &L,
                        const std::map<std::string, OutsideStage> &Outside,
                        double WallMs, double UnattributedMs);

} // namespace e2e

#endif // RAMLOC_E2EBENCH_LEDGER_H
