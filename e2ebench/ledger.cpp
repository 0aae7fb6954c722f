//===- e2ebench/ledger.cpp - per-layer time ledger from trace spans ------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "ledger.h"

#include "support/Format.h"
#include "support/Table.h"

#include <algorithm>
#include <cmath>

using namespace ramloc;

namespace e2e {

const SpanStats &Ledger::span(const std::string &Name) const {
  static const SpanStats None;
  auto It = Spans.find(Name);
  return It == Spans.end() ? None : It->second;
}

namespace {

uint64_t endNs(const TraceEvent &E) { return E.StartNs + E.DurNs; }

/// Length of the union of [Start, End) intervals.
uint64_t unionLength(std::vector<std::pair<uint64_t, uint64_t>> Intervals) {
  std::sort(Intervals.begin(), Intervals.end());
  uint64_t Covered = 0, CurStart = 0, CurEnd = 0;
  bool Open = false;
  for (const auto &[Start, End] : Intervals) {
    if (Open && Start <= CurEnd) {
      CurEnd = std::max(CurEnd, End);
      continue;
    }
    if (Open)
      Covered += CurEnd - CurStart;
    CurStart = Start;
    CurEnd = End;
    Open = true;
  }
  if (Open)
    Covered += CurEnd - CurStart;
  return Covered;
}

} // namespace

Ledger buildLedger(const TraceSnapshot &S, unsigned MainTid) {
  const std::vector<TraceEvent> &Ev = S.Events;
  // Parent of each event (-1 for roots). The snapshot is sorted by
  // (tid, start, longest first), so a per-thread stack finds nesting.
  std::vector<ptrdiff_t> Parent(Ev.size(), -1);
  std::vector<size_t> MainEvents;
  std::vector<size_t> Stack;
  for (size_t I = 0; I != Ev.size(); ++I) {
    if (I != 0 && Ev[I].Tid != Ev[I - 1].Tid)
      Stack.clear();
    while (!Stack.empty() && endNs(Ev[Stack.back()]) <= Ev[I].StartNs)
      Stack.pop_back();
    if (!Stack.empty() && endNs(Ev[I]) <= endNs(Ev[Stack.back()]))
      Parent[I] = static_cast<ptrdiff_t>(Stack.back());
    Stack.push_back(I);
    if (Ev[I].Tid == MainTid)
      MainEvents.push_back(I);
  }
  // Worker roots hang off the innermost enclosing main-thread span.
  for (size_t I = 0; I != Ev.size(); ++I) {
    if (Ev[I].Tid == MainTid || Parent[I] >= 0)
      continue;
    uint64_t Best = UINT64_MAX;
    for (size_t M : MainEvents)
      if (Ev[M].StartNs <= Ev[I].StartNs && endNs(Ev[I]) <= endNs(Ev[M]) &&
          Ev[M].DurNs < Best) {
        Best = Ev[M].DurNs;
        Parent[I] = static_cast<ptrdiff_t>(M);
      }
  }

  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Children(Ev.size());
  for (size_t I = 0; I != Ev.size(); ++I)
    if (Parent[I] >= 0)
      Children[static_cast<size_t>(Parent[I])].emplace_back(Ev[I].StartNs,
                                                            endNs(Ev[I]));

  Ledger L;
  for (size_t I = 0; I != Ev.size(); ++I) {
    SpanStats &St = L.Spans[Ev[I].Name];
    double DurMs = static_cast<double>(Ev[I].DurNs) / 1e6;
    ++St.Calls;
    St.TotalMs += DurMs;
    St.DurMs.push_back(DurMs);
    uint64_t Covered = unionLength(std::move(Children[I]));
    St.SelfMs += static_cast<double>(Ev[I].DurNs - std::min(Covered,
                                                            Ev[I].DurNs)) /
                 1e6;
  }
  return L;
}

double percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Rank = std::ceil(P / 100.0 * static_cast<double>(Values.size()));
  size_t Index = Rank < 1.0 ? 0 : static_cast<size_t>(Rank) - 1;
  return Values[std::min(Index, Values.size() - 1)];
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2.0;
}

std::string ledgerTable(const Ledger &L,
                        const std::map<std::string, OutsideStage> &Outside,
                        double WallMs, double UnattributedMs) {
  Table T({"layer", "source", "calls", "self ms", "share of wall"});
  auto Share = [WallMs](double Ms) {
    return WallMs > 0 ? formatString("%.1f%%", 100.0 * Ms / WallMs) : "-";
  };
  auto Calls = [](uint64_t N) {
    return formatString("%llu", static_cast<unsigned long long>(N));
  };
  // Heaviest first, so the table reads as "where the time went".
  std::vector<std::pair<double, std::string>> Order;
  for (const auto &[Name, St] : L.Spans)
    Order.emplace_back(-St.SelfMs, Name);
  std::sort(Order.begin(), Order.end());
  for (const auto &[NegSelf, Name] : Order) {
    const SpanStats &St = L.span(Name);
    T.addRow({Name, "span", Calls(St.Calls), formatString("%.2f", St.SelfMs),
              Share(St.SelfMs)});
  }
  T.addSeparator();
  for (const auto &[Name, St] : Outside)
    T.addRow({Name, "outside", Calls(St.Calls), formatString("%.2f", St.Ms),
              Share(St.Ms)});
  T.addSeparator();
  T.addRow({"unattributed", "ledger", "-", formatString("%.2f", UnattributedMs),
            Share(UnattributedMs)});
  T.addRow({"wall", "pass", "-", formatString("%.2f", WallMs), "100.0%"});
  return T.render();
}

} // namespace e2e
