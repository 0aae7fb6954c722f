//===- e2ebench/ledger_test.cpp - self-time arithmetic on a known trace --------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
// Builds the ledger of a hand-made two-worker trace whose self times are
// known, including worker roots that overlap under one main-thread span.
// Exits non-zero on the first wrong number.
//
//===----------------------------------------------------------------------===//

#include "ledger.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace ramloc;

namespace {

int Failures = 0;

void expectNear(const char *What, double Got, double Want) {
  if (std::fabs(Got - Want) > 1e-9) {
    std::fprintf(stderr, "FAIL %s: got %g, want %g\n", What, Got, Want);
    ++Failures;
  }
}

/// A span on \p Tid over [StartMs, EndMs).
TraceEvent span(const char *Name, unsigned Tid, uint64_t StartMs,
                uint64_t EndMs) {
  TraceEvent E;
  E.Name = Name;
  E.Tid = Tid;
  E.StartNs = StartMs * 1000000;
  E.DurNs = (EndMs - StartMs) * 1000000;
  return E;
}

} // namespace

int main() {
  TraceSnapshot S;
  // Sorted like TraceRecorder::snapshot(): tid, start, longest first.
  S.Events = {
      span("pass", 0, 0, 100),    span("campaign", 0, 10, 90),
      span("report", 0, 90, 98),  span("job", 1, 20, 60),
      span("solve", 1, 25, 35),   span("extract", 1, 40, 50),
      span("fullsim", 1, 42, 47), span("job", 2, 30, 80),
  };
  e2e::Ledger L = e2e::buildLedger(S, /*MainTid=*/0);

  // pass: 100 minus campaign [10,90) and report [90,98).
  expectNear("pass self", L.span("pass").SelfMs, 12);
  // campaign: 80 minus the union of the two overlapping jobs, [20,80).
  expectNear("campaign self", L.span("campaign").SelfMs, 20);
  // job: (40 - 10 - 10) + (50 - 0).
  expectNear("job self", L.span("job").SelfMs, 70);
  expectNear("job total", L.span("job").TotalMs, 90);
  expectNear("job calls", static_cast<double>(L.span("job").Calls), 2);
  expectNear("extract self", L.span("extract").SelfMs, 5);
  expectNear("fullsim self", L.span("fullsim").SelfMs, 5);
  expectNear("solve self", L.span("solve").SelfMs, 10);
  expectNear("absent span", L.span("recost").SelfMs, 0);

  expectNear("p50", e2e::percentile({4, 1, 3, 2}, 50), 2);
  expectNear("p99", e2e::percentile({4, 1, 3, 2}, 99), 4);
  expectNear("median even", e2e::median({4, 1, 3, 2}), 2.5);
  expectNear("median odd", e2e::median({5, 1, 3}), 3);

  if (Failures == 0)
    std::printf("ledger_test: all checks pass\n");
  return Failures == 0 ? 0 : 1;
}
